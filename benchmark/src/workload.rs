//! The six workloads and the seed derivation that generates their inputs.
//!
//! Every workload runs the same pipeline (initialization repetitions, a
//! discarded warm-up session, the measured closed-loop sessions, a chunk
//! probe); they differ only in the parameters below, all of which are
//! user-facing engine parameters.

use uei_learn::EstimatorKind;

/// Target size of one chunk file (`StoreConfig::chunk_target_bytes`).
pub const CHUNK_TARGET_BYTES: usize = 65_536;
/// Size γ of the uniform sample kept in the unlabeled cache `U`.
pub const GAMMA: usize = 2_000;
/// Uniform pool the two initial examples are drawn from.
pub const BOOTSTRAP_SIZE: usize = 150;
/// Cardinality of a target region as a share of the rows (the paper's
/// "medium" region).
pub const TARGET_FRACTION: f64 = 0.004;
/// Response-latency threshold σ between two examples, seconds.
pub const SIGMA_SECS: f64 = 0.5;
/// Chunk ids the read/decode probe samples.
pub const PROBE_CHUNKS: usize = 512;
/// Discarded `UeiBackend::from_engine` + `ExplorationSession::start` pairs
/// timed beside the measured sessions' own, so that `session_start_ms` is
/// a median of 32 samples or more.
pub const EXTRA_STARTS: usize = 28;
/// Repetitions of `ColumnStore::open` + `EngineCore::new`.
const OPEN_REPS: usize = 21;

/// How the engine's chunk cache is sized against the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheBudget {
    /// This share of `total_chunk_bytes`, at least one chunk file.
    ShareOfStore(f64),
    /// This multiple of `total_chunk_bytes`: the working set fits.
    TimesStore(usize),
}

impl CacheBudget {
    pub fn bytes(self, total_chunk_bytes: u64) -> usize {
        match self {
            CacheBudget::ShareOfStore(share) => {
                ((total_chunk_bytes as f64 * share) as usize).max(CHUNK_TARGET_BYTES)
            }
            CacheBudget::TimesStore(times) => total_chunk_bytes as usize * times,
        }
    }

    pub fn describe(self) -> String {
        match self {
            CacheBudget::ShareOfStore(share) => format!("{}% of total_chunk_bytes", share * 100.0),
            CacheBudget::TimesStore(times) => format!("{times} x total_chunk_bytes"),
        }
    }
}

/// One workload: a name, the reason it exists, and its parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub rows: usize,
    pub cells_per_dim: usize,
    pub estimator: EstimatorKind,
    pub cache: CacheBudget,
    /// Closed-loop clients, one thread each, over one `EngineCore`.
    pub clients: usize,
    /// Sessions each client runs back to back, 60 iterations each.
    pub sessions: usize,
    pub prefetch: bool,
    /// Each session writes a journal (`JournalConfig::default()`).
    pub journaled: bool,
    /// Repetitions of synth + `ColumnStore::create` + `EngineCore::new`.
    pub setup_reps: usize,
}

const DWKNN: EstimatorKind = EstimatorKind::Dwknn { k: 5 };
const ONE_PERCENT: CacheBudget = CacheBudget::ShareOfStore(0.01);
const FITS: CacheBudget = CacheBudget::TimesStore(2);

/// The workloads, in the order `run --all` runs them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paper_cold",
        why: "Table-1 configuration with data much larger than the cache: region read+decode+merge in storage is about 85% of the response, index rescoring under 5%.",
        rows: 150_000,
        cells_per_dim: 5,
        estimator: DWKNN,
        cache: ONE_PERCENT,
        clients: 1,
        sessions: 4,
        prefetch: false,
        journaled: false,
        setup_reps: 5,
    },
    Workload {
        name: "paper_prefetch",
        why: "Same inputs with the background prefetcher on: shows whether a region-load gain survives when loads are hidden and whether prefetch work steals the second core.",
        rows: 150_000,
        cells_per_dim: 5,
        estimator: DWKNN,
        cache: ONE_PERCENT,
        clients: 1,
        sessions: 4,
        prefetch: true,
        journaled: false,
        setup_reps: 5,
    },
    Workload {
        name: "paper_shared_x2",
        why: "Two journaled clients over one engine whose cache holds the working set: reads become hits, which isolates merge CPU, shared-cache locking and per-call thread spawning.",
        rows: 150_000,
        cells_per_dim: 5,
        estimator: DWKNN,
        cache: FITS,
        clients: 2,
        // With a cache that fits, a session reads a chunk on first touch
        // only, and how many chunks it touches varies widely from one
        // target region to the next; sixteen sessions average it.
        sessions: 8,
        prefetch: false,
        journaled: true,
        setup_reps: 5,
    },
    Workload {
        name: "grid_1m_dwknn",
        why: "16^5 = 1,048,576 index points: incremental kd-tree rescoring of the dirty points is most of the response, top-theta selection next, storage (cache fits) last.",
        rows: 100_000,
        cells_per_dim: 16,
        estimator: DWKNN,
        cache: FITS,
        clients: 1,
        sessions: 4,
        prefetch: false,
        journaled: false,
        setup_reps: 5,
    },
    Workload {
        name: "grid_1m_svm",
        why: "Same 1M-point plane under a linear SVM: a global model forces a full rescore of every point every iteration with no kd-tree, the other way the index layer is used.",
        rows: 100_000,
        cells_per_dim: 16,
        estimator: EstimatorKind::LinearSvm { epochs: 30, lambda: 0.01 },
        cache: FITS,
        clients: 1,
        // Where the hyperplane cuts the 1M cells moves with every label, so
        // what a session reads is erratic; eight sessions average it.
        sessions: 8,
        prefetch: false,
        journaled: false,
        setup_reps: 5,
    },
    Workload {
        name: "build",
        why: "The initialization phase (Algorithm 2 lines 1-11) at the largest row count, repeated seven times: the write path beside the read path, where a bounded-memory build must show.",
        rows: 250_000,
        cells_per_dim: 5,
        estimator: DWKNN,
        cache: ONE_PERCENT,
        clients: 1,
        sessions: 4,
        prefetch: false,
        journaled: false,
        setup_reps: 7,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much work a run does around the fixed parameters of its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `Workload::sessions` sessions of 62 labels per client: at least 240
    /// pooled iterations.
    Full,
    /// 1 session of 22 labels on a fifth of the rows (20,000 to 50,000),
    /// two initialization repetitions: every check, no timing bounds.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn sessions_per_client(self, w: &Workload) -> usize {
        match self {
            Scale::Full => w.sessions,
            Scale::Smoke => 1,
        }
    }

    /// Labels per measured session, the two bootstrap labels included.
    pub fn max_labels(self) -> usize {
        match self {
            Scale::Full => 62,
            Scale::Smoke => 22,
        }
    }

    /// Labels of the discarded warm-up session.
    pub fn warmup_labels(self) -> usize {
        match self {
            Scale::Full => 22,
            Scale::Smoke => 6,
        }
    }

    pub fn rows(self, w: &Workload) -> usize {
        match self {
            Scale::Full => w.rows,
            Scale::Smoke => w.rows / 5,
        }
    }

    pub fn setup_reps(self, w: &Workload) -> usize {
        match self {
            Scale::Full => w.setup_reps,
            Scale::Smoke => 2,
        }
    }

    pub fn open_reps(self) -> usize {
        match self {
            Scale::Full => OPEN_REPS,
            Scale::Smoke => 2,
        }
    }
}

/// What a derived seed feeds. The stream, the client and the session key
/// the derivation; the workload's name never does, so workloads that share
/// parameters see identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// `SynthConfig::seed` of the dataset (client and session 0).
    Dataset = 1,
    /// Placement of a session's target region.
    Target = 2,
    /// `SessionConfig::seed`, the session's master seed.
    Session = 3,
    /// The draw of the γ-sample that seeds `U`.
    Gamma = 4,
    /// The chunk ids the read/decode probe visits (client and session 0).
    Probe = 5,
}

/// Session index of the discarded warm-up session.
pub const WARMUP_SESSION: u64 = u64::MAX;

/// One SplitMix64 step: add the golden-ratio increment, then finalize.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one seed derivation of the benchmark: SplitMix64 chained over
/// `--seed`, then the stream, the client and the session, each absorbed by
/// xor before the next step.
pub fn derive_seed(seed: u64, stream: Stream, client: u64, session: u64) -> u64 {
    let s = splitmix64(seed);
    let s = splitmix64(s ^ stream as u64);
    let s = splitmix64(s ^ client);
    splitmix64(s ^ session)
}

/// Every seed a run of `workload` consumes, in a comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub dataset: u64,
    pub probe: u64,
    /// `[client][session]` → (target, session, gamma) seeds.
    pub sessions: Vec<Vec<SessionSeeds>>,
    pub warmup: SessionSeeds,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSeeds {
    pub target: u64,
    pub session: u64,
    pub gamma: u64,
}

impl SessionSeeds {
    fn derive(seed: u64, client: u64, session: u64) -> SessionSeeds {
        SessionSeeds {
            target: derive_seed(seed, Stream::Target, client, session),
            session: derive_seed(seed, Stream::Session, client, session),
            gamma: derive_seed(seed, Stream::Gamma, client, session),
        }
    }
}

impl Inputs {
    pub fn derive(seed: u64, clients: usize, sessions_per_client: usize) -> Inputs {
        Inputs {
            dataset: derive_seed(seed, Stream::Dataset, 0, 0),
            probe: derive_seed(seed, Stream::Probe, 0, 0),
            sessions: (0..clients as u64)
                .map(|c| {
                    (0..sessions_per_client as u64)
                        .map(|s| SessionSeeds::derive(seed, c, s))
                        .collect()
                })
                .collect(),
            warmup: SessionSeeds::derive(seed, 0, WARMUP_SESSION),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs_of(name: &str, seed: u64) -> Inputs {
        let w = find(name).unwrap();
        Inputs::derive(seed, w.clients, Scale::Full.sessions_per_client(w))
    }

    #[test]
    fn paper_workloads_share_inputs_for_one_seed() {
        let cold = inputs_of("paper_cold", 7);
        let prefetch = inputs_of("paper_prefetch", 7);
        let shared = inputs_of("paper_shared_x2", 7);
        assert_eq!(cold, prefetch);
        assert_eq!(cold.dataset, shared.dataset);
        assert_eq!(cold.warmup, shared.warmup);
        let shared_first = &shared.sessions[0][..cold.sessions[0].len()];
        assert_eq!(cold.sessions[0], shared_first, "client 0 starts with paper_cold's sessions");
        assert_ne!(shared.sessions[0], shared.sessions[1], "client 1 explores other regions");
        let rows = |n| find(n).unwrap().rows;
        assert_eq!(rows("paper_cold"), rows("paper_prefetch"));
        assert_eq!(rows("paper_cold"), rows("paper_shared_x2"));
    }

    #[test]
    fn another_seed_gives_other_target_regions() {
        let a = inputs_of("paper_cold", 1);
        let b = inputs_of("paper_cold", 2);
        assert_ne!(a.dataset, b.dataset);
        for (sa, sb) in a.sessions[0].iter().zip(&b.sessions[0]) {
            assert_ne!(sa.target, sb.target);
            assert_ne!(sa.session, sb.session);
        }
        assert_eq!(a, inputs_of("paper_cold", 1), "same seed, same inputs");
    }

    #[test]
    fn derived_seeds_do_not_collide_across_keys() {
        let mut seen = std::collections::HashSet::new();
        for stream in
            [Stream::Dataset, Stream::Target, Stream::Session, Stream::Gamma, Stream::Probe]
        {
            for client in 0..3 {
                for session in [0, 1, 2, 3, WARMUP_SESSION] {
                    assert!(seen.insert(derive_seed(42, stream, client, session)));
                }
            }
        }
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        let mut names = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(names.insert(w.name));
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}", w.name);
            assert!(w.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(w.clients >= 1 && w.setup_reps >= 1);
            assert!(w.clients * w.sessions * 60 >= 240, "p95 needs 240 pooled iterations");
        }
        assert!(find("paper_cold").is_some() && find("nope").is_none());
    }

    #[test]
    fn cache_budget_never_drops_below_one_chunk() {
        assert_eq!(ONE_PERCENT.bytes(1_000), CHUNK_TARGET_BYTES);
        assert_eq!(ONE_PERCENT.bytes(100_000_000), 1_000_000);
        assert_eq!(CacheBudget::TimesStore(2).bytes(1_000), 2_000);
    }
}
