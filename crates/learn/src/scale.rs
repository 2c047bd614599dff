//! Min–max feature scaling.
//!
//! Distance-based estimators (DWKNN, kNN) are meaningless over raw SDSS
//! attributes whose domains differ by orders of magnitude (`rowc` spans
//! 0–2048 while `dec` spans −90–90): the widest attribute dominates every
//! distance. All models and index points in this workspace therefore
//! operate on coordinates mapped to the unit cube via the schema's domains.

use uei_types::{PointMatrix, Result, Schema, UeiError};

/// A per-dimension linear map onto `[0, 1]`.
///
/// ```
/// use uei_learn::MinMaxScaler;
/// use uei_types::Schema;
///
/// let scaler = MinMaxScaler::from_schema(&Schema::sdss());
/// let z = scaler.transform(&[1024.0, 0.0, 180.0, 0.0, 500.0]).unwrap();
/// assert_eq!(z[0], 0.5); // rowc domain is 0..2048
/// assert_eq!(z[3], 0.5); // dec domain is -90..90
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl MinMaxScaler {
    /// Builds a scaler from explicit bounds.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<MinMaxScaler> {
        if lo.len() != hi.len() {
            return Err(UeiError::DimensionMismatch { expected: lo.len(), actual: hi.len() });
        }
        if lo.is_empty() {
            return Err(UeiError::invalid_config("scaler needs at least one dimension"));
        }
        for d in 0..lo.len() {
            if !(lo[d] <= hi[d]) {
                return Err(UeiError::invalid_config(format!("scaler bounds inverted in dim {d}")));
            }
        }
        Ok(MinMaxScaler { lo, hi })
    }

    /// Builds a scaler from a schema's attribute domains.
    pub fn from_schema(schema: &Schema) -> MinMaxScaler {
        let lo = schema.attributes().iter().map(|a| a.min).collect();
        let hi = schema.attributes().iter().map(|a| a.max).collect();
        MinMaxScaler { lo, hi }
    }

    /// Fits bounds from data (useful when the schema is unknown).
    pub fn fit(points: &[Vec<f64>]) -> Result<MinMaxScaler> {
        let first = points
            .first()
            .ok_or_else(|| UeiError::invalid_config("cannot fit scaler on empty data"))?;
        let mut lo = first.clone();
        let mut hi = first.clone();
        for p in points {
            if p.len() != lo.len() {
                return Err(UeiError::DimensionMismatch { expected: lo.len(), actual: p.len() });
            }
            for d in 0..p.len() {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        MinMaxScaler::new(lo, hi)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Maps a point into the unit cube. Constant dimensions map to 0.5.
    pub fn transform(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(x.len());
        self.transform_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Self::transform`] into a caller-provided buffer (cleared first) —
    /// the allocation-free form the batch scoring paths use.
    pub fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.dims() {
            return Err(UeiError::DimensionMismatch { expected: self.dims(), actual: x.len() });
        }
        out.clear();
        out.extend((0..x.len()).map(|d| {
            let w = self.hi[d] - self.lo[d];
            if w > 0.0 {
                (x[d] - self.lo[d]) / w
            } else {
                0.5
            }
        }));
        Ok(())
    }

    /// Maps a unit-cube point back to the original space.
    pub fn inverse(&self, z: &[f64]) -> Result<Vec<f64>> {
        if z.len() != self.dims() {
            return Err(UeiError::DimensionMismatch { expected: self.dims(), actual: z.len() });
        }
        Ok((0..z.len()).map(|d| self.lo[d] + z[d] * (self.hi[d] - self.lo[d])).collect())
    }
}

/// A classifier that operates on raw coordinates by scaling them into the
/// unit cube before delegating to an inner model.
///
/// Everything in the exploration loop (query strategies, index-point
/// scoring, exhaustive scans) passes raw attribute values; the scaling is
/// an internal concern of distance-based estimators. Training data is
/// scaled once at fit time, queries on every call.
pub struct ScaledClassifier {
    inner: Box<dyn crate::model::Classifier>,
    scaler: MinMaxScaler,
}

impl ScaledClassifier {
    /// Scales `examples` and trains an inner model of `kind` on them.
    pub fn train(
        kind: crate::model::EstimatorKind,
        scaler: MinMaxScaler,
        examples: &[(Vec<f64>, uei_types::Label)],
    ) -> Result<ScaledClassifier> {
        let scaled: Result<Vec<(Vec<f64>, uei_types::Label)>> =
            examples.iter().map(|(x, l)| Ok((scaler.transform(x)?, *l))).collect();
        let inner = kind.train(&scaled?)?;
        Ok(ScaledClassifier { inner, scaler })
    }

    /// Wraps an already trained model (which must expect scaled inputs).
    pub fn wrap(inner: Box<dyn crate::model::Classifier>, scaler: MinMaxScaler) -> Self {
        ScaledClassifier { inner, scaler }
    }

    /// The scaler in use.
    pub fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// Scales a batch into one flat row-major matrix plus a validity mask
    /// (`valid[i]` is false for rows of the wrong dimensionality, which
    /// score the 0.5 fallback). Scaling is element-wise, so filling the
    /// matrix sequentially produces bit-identical coordinates to any
    /// per-row schedule; the expensive part — inner-model scoring — still
    /// parallelizes downstream.
    fn scale_batch(&self, xs: &[&[f64]]) -> (PointMatrix, Vec<bool>) {
        let dims = self.scaler.dims();
        let mut matrix = PointMatrix::with_capacity(xs.len(), dims);
        let mut valid = Vec::with_capacity(xs.len());
        let mut buf = Vec::with_capacity(dims);
        for x in xs {
            let ok =
                self.scaler.transform_into(x, &mut buf).is_ok() && matrix.push_row(&buf).is_ok();
            valid.push(ok);
        }
        (matrix, valid)
    }
}

impl crate::model::Classifier for ScaledClassifier {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        match self.scaler.transform(x) {
            Ok(z) => self.inner.predict_proba(&z),
            Err(_) => 0.5,
        }
    }

    fn predict_proba_batch_tracked(&self, xs: &[&[f64]]) -> crate::delta::ScoredBatch {
        // Scale into one flat matrix, score the valid rows through the
        // inner model's batch path, and splice the fallback back in for
        // rows of the wrong dimensionality: 0.5 with an infinite radius
        // (always dirty), so the delta stays sound for them.
        let (matrix, valid) = self.scale_batch(xs);
        let inner = self.inner.predict_proba_batch_tracked(&matrix.row_refs());
        let probs = splice(&valid, inner.probs, 0.5);
        let radii2 = inner.radii2.map(|radii2| splice(&valid, radii2, f64::INFINITY));
        crate::delta::ScoredBatch { probs, radii2 }
    }

    fn model_delta(
        &self,
        points: &PointMatrix,
        rows: std::ops::Range<usize>,
        radii2: &[f64],
        added: &[&[f64]],
    ) -> crate::delta::ModelDelta {
        // Radii were produced by the inner model in *scaled* space, so the
        // geometry test must run there too: scale the range's rows and the
        // added examples, then delegate over the whole scaled range. Only
        // the range's rows are transformed, so the shard-parallel rescoring
        // path pays scaling work proportional to the shard. Any input the
        // scaler cannot transform gives Global, which the caller escalates
        // to a full rescore.
        if rows.start > rows.end || rows.end > points.len() || radii2.len() != rows.len() {
            return crate::delta::ModelDelta::Global;
        }
        let mut scaled_added = Vec::with_capacity(added.len());
        for a in added {
            match self.scaler.transform(a) {
                Ok(z) => scaled_added.push(z),
                Err(_) => return crate::delta::ModelDelta::Global,
            }
        }
        let mut scaled = PointMatrix::with_capacity(rows.len(), self.scaler.dims());
        let mut buf = Vec::with_capacity(self.scaler.dims());
        for i in rows {
            if self.scaler.transform_into(points.row(i), &mut buf).is_err()
                || scaled.push_row(&buf).is_err()
            {
                return crate::delta::ModelDelta::Global;
            }
        }
        let added_refs: Vec<&[f64]> = scaled_added.iter().map(|z| z.as_slice()).collect();
        let len = scaled.len();
        self.inner.model_delta(&scaled, 0..len, radii2, &added_refs)
    }

    fn training_len(&self) -> Option<usize> {
        self.inner.training_len()
    }

    fn parallel_batch_threshold(&self) -> usize {
        self.inner.parallel_batch_threshold()
    }

    fn dims(&self) -> usize {
        self.scaler.dims()
    }
}

/// One value per row: the next of `values` for each valid row, `fallback`
/// for each invalid one.
fn splice(valid: &[bool], values: Vec<f64>, fallback: f64) -> Vec<f64> {
    let mut values = values.into_iter();
    valid
        .iter()
        .map(|&ok| if ok { values.next().expect("one value per valid row") } else { fallback })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Classifier, EstimatorKind};
    use uei_types::{Label, Schema};

    #[test]
    fn transform_and_inverse_round_trip() {
        let s = MinMaxScaler::new(vec![0.0, -90.0], vec![2048.0, 90.0]).unwrap();
        let x = vec![1024.0, 45.0];
        let z = s.transform(&x).unwrap();
        assert_eq!(z, vec![0.5, 0.75]);
        let back = s.inverse(&z).unwrap();
        assert!((back[0] - x[0]).abs() < 1e-9);
        assert!((back[1] - x[1]).abs() < 1e-9);
    }

    #[test]
    fn from_schema_covers_domains() {
        let s = MinMaxScaler::from_schema(&Schema::sdss());
        assert_eq!(s.dims(), 5);
        let z = s.transform(&[0.0, 2048.0, 180.0, 0.0, 500.0]).unwrap();
        assert_eq!(z[0], 0.0);
        assert_eq!(z[1], 1.0);
        assert_eq!(z[2], 0.5);
        assert_eq!(z[3], 0.5);
        assert_eq!(z[4], 0.5);
    }

    #[test]
    fn fit_from_data() {
        let pts = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 20.0]];
        let s = MinMaxScaler::fit(&pts).unwrap();
        assert_eq!(s.transform(&[1.0, 10.0]).unwrap(), vec![0.0, 0.0]);
        assert_eq!(s.transform(&[3.0, 30.0]).unwrap(), vec![1.0, 1.0]);
        assert!(MinMaxScaler::fit(&[]).is_err());
    }

    #[test]
    fn constant_dimension_maps_to_half() {
        let s = MinMaxScaler::new(vec![5.0], vec![5.0]).unwrap();
        assert_eq!(s.transform(&[5.0]).unwrap(), vec![0.5]);
    }

    #[test]
    fn validations() {
        assert!(MinMaxScaler::new(vec![1.0], vec![0.0]).is_err());
        assert!(MinMaxScaler::new(vec![], vec![]).is_err());
        assert!(MinMaxScaler::new(vec![0.0], vec![1.0, 2.0]).is_err());
        let s = MinMaxScaler::new(vec![0.0], vec![1.0]).unwrap();
        assert!(s.transform(&[0.0, 0.0]).is_err());
        assert!(s.inverse(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn out_of_domain_values_extrapolate() {
        let s = MinMaxScaler::new(vec![0.0], vec![10.0]).unwrap();
        assert_eq!(s.transform(&[-5.0]).unwrap(), vec![-0.5]);
        assert_eq!(s.transform(&[20.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn scaled_classifier_handles_wide_domains() {
        // rowc spans 0..2048, dec −90..90: unscaled kNN would be dominated
        // by rowc; the wrapper makes both attributes count.
        let scaler = MinMaxScaler::new(vec![0.0, -90.0], vec![2048.0, 90.0]).unwrap();
        let examples = vec![
            (vec![1000.0, 80.0], Label::Positive),
            (vec![1010.0, 85.0], Label::Positive),
            (vec![1000.0, -80.0], Label::Negative),
            (vec![1010.0, -85.0], Label::Negative),
        ];
        let model =
            ScaledClassifier::train(EstimatorKind::Dwknn { k: 3 }, scaler, &examples).unwrap();
        assert_eq!(model.dims(), 2);
        assert_eq!(model.predict(&[1005.0, 82.0]), Label::Positive);
        assert_eq!(model.predict(&[1005.0, -82.0]), Label::Negative);
    }

    #[test]
    fn tracked_and_delta_forward_through_scaling() {
        let scaler = MinMaxScaler::new(vec![0.0, -90.0], vec![2048.0, 90.0]).unwrap();
        let examples = vec![
            (vec![1000.0, 80.0], Label::Positive),
            (vec![1010.0, 85.0], Label::Positive),
            (vec![1000.0, -80.0], Label::Negative),
            (vec![1010.0, -85.0], Label::Negative),
        ];
        let model =
            ScaledClassifier::train(EstimatorKind::Dwknn { k: 3 }, scaler, &examples).unwrap();
        let queries: Vec<Vec<f64>> = vec![
            vec![1005.0, 82.0],
            vec![1005.0], // wrong dims: spliced 0.5 / infinite radius
            vec![1005.0, -82.0],
        ];
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let plain = model.predict_proba_batch(&refs);
        let tracked = model.predict_proba_batch_tracked(&refs);
        for (a, b) in plain.iter().zip(&tracked.probs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let radii2 = tracked.radii2.expect("inner DWKNN reports radii");
        assert!(radii2[0].is_finite());
        assert!(radii2[1].is_infinite(), "invalid rows must stay always-dirty");
        assert!(radii2[2].is_finite());

        // A raw-space added point yields a spatial delta (geometry runs in
        // scaled space) over any range of the valid rows.
        let valid = PointMatrix::from_rows(&[&queries[0], &queries[2]]).unwrap();
        let valid_radii = [radii2[0], radii2[2]];
        let added = [vec![1005.0, 83.0]];
        let added_refs: Vec<&[f64]> = added.iter().map(|p| p.as_slice()).collect();
        match model.model_delta(&valid, 1..2, &valid_radii[1..], &added_refs) {
            crate::delta::ModelDelta::Dirty(mask) => assert_eq!(mask.len(), 1),
            crate::delta::ModelDelta::Global => panic!("scaled kNN delta should be spatial"),
        }
        // Any input the scaler cannot transform degrades to Global: an
        // added point or rows of the wrong dimensionality.
        let ragged = [vec![1005.0]];
        let ragged_refs: Vec<&[f64]> = ragged.iter().map(|p| p.as_slice()).collect();
        assert_eq!(
            model.model_delta(&valid, 0..2, &valid_radii, &ragged_refs),
            crate::delta::ModelDelta::Global
        );
        let narrow = PointMatrix::from_rows(&[[1005.0]]).unwrap();
        assert_eq!(
            model.model_delta(&narrow, 0..1, &[1.0], &added_refs),
            crate::delta::ModelDelta::Global
        );
    }

    #[test]
    fn scaled_classifier_wrong_dims_is_uncertain() {
        let scaler = MinMaxScaler::new(vec![0.0], vec![1.0]).unwrap();
        let examples = vec![(vec![0.1], Label::Negative), (vec![0.9], Label::Positive)];
        let model =
            ScaledClassifier::train(EstimatorKind::Dwknn { k: 1 }, scaler, &examples).unwrap();
        assert_eq!(model.predict_proba(&[0.5, 0.5]), 0.5);
    }
}
