//! Workload inputs, generated from the run seed with
//! `pigeon_corpus::generate`. The program under test sees only these
//! generated sources.

use pigeon::corpus::{generate, CorpusConfig, Language};

/// Input sizes of one workload. Both workloads run every phase; they
/// differ in how large each program is, which moves per-program work
/// (paths, graph size, top-k calls, request bodies) against fixed
/// per-request costs (framing, the batcher's companion wait). Every
/// file has the same number of functions, so corpora of one size
/// differ between seeds in content, not in amount.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub min_functions: usize,
    pub max_functions: usize,
    /// Training files per language in the `train` phase.
    pub train_files: usize,
    /// Held-out files per language for `heldout_top1`.
    pub heldout_files: usize,
    /// Size of the JavaScript namer that `serve` and `cold-predict`
    /// load, as model JSON bytes: its training corpus is the shortest
    /// prefix of the seed's stream that reaches it, so every seed serves
    /// a model of one size. Kept small: JSON model load time grows with
    /// the square of the model size.
    pub serve_model_bytes: usize,
    /// Where the search for that prefix starts.
    pub serve_files_guess: usize,
    /// Held-out JavaScript programs sent to the server and predicted by
    /// `cold-predict`.
    pub programs: usize,
    /// JavaScript files of the corpus the coordinator trains on.
    pub coord_files: usize,
}

pub const SHAPES: [Shape; 2] = [
    Shape {
        name: "small",
        min_functions: 2,
        max_functions: 2,
        train_files: 160,
        heldout_files: 80,
        serve_model_bytes: 120_000,
        serve_files_guess: 33,
        programs: 1000,
        coord_files: 120,
    },
    Shape {
        name: "large",
        min_functions: 4,
        max_functions: 4,
        train_files: 80,
        heldout_files: 80,
        serve_model_bytes: 120_000,
        serve_files_guess: 16,
        programs: 400,
        coord_files: 60,
    },
];

impl Shape {
    pub fn named(name: &str) -> Option<Shape> {
        SHAPES.iter().copied().find(|s| s.name == name)
    }

    fn config(&self, files: usize, seed: u64) -> CorpusConfig {
        let mut cfg = CorpusConfig::default().with_files(files).with_seed(seed);
        cfg.min_functions = self.min_functions;
        cfg.max_functions = self.max_functions;
        cfg
    }
}

/// Files generated for the served namer's stream; the set-up trains on
/// the shortest prefix that reaches [`Shape::serve_model_bytes`].
pub const SERVE_STREAM_FILES: usize = 200;

/// Generator streams; each gets its own seed derived from the run seed.
const TRAIN: u64 = 1;
const SERVE_MODEL: u64 = 2;
const COORDINATE: u64 = 3;
/// Held-out programs come only from this stream, so no training corpus
/// is generated from their seed.
const HELD_OUT: u64 = 4;

/// SplitMix64 over the run seed and a stream tag.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every generated source of one run.
pub struct Inputs {
    /// Training sources per language, in `Language::ALL` order.
    pub train: Vec<(Language, Vec<String>)>,
    /// Held-out sources per language, in `Language::ALL` order.
    pub heldout: Vec<(Language, Vec<String>)>,
    /// The stream the served JavaScript namer trains on a prefix of.
    pub serve_train: Vec<String>,
    /// Held-out JavaScript programs for `serve` and `cold-predict`.
    pub programs: Vec<String>,
    /// The coordinator's JavaScript corpus.
    pub coord: Vec<String>,
}

fn sources(language: Language, cfg: &CorpusConfig) -> Vec<String> {
    generate(language, cfg)
        .docs
        .into_iter()
        .map(|d| d.source)
        .collect()
}

impl Inputs {
    pub fn generate(shape: &Shape, seed: u64) -> Inputs {
        let train_cfg = shape.config(shape.train_files, derive_seed(seed, TRAIN));
        let held_seed = derive_seed(seed, HELD_OUT);
        let held_cfg = shape.config(shape.heldout_files, held_seed);
        let js = Language::JavaScript;
        Inputs {
            train: Language::ALL
                .iter()
                .map(|&l| (l, sources(l, &train_cfg)))
                .collect(),
            heldout: Language::ALL
                .iter()
                .map(|&l| (l, sources(l, &held_cfg)))
                .collect(),
            serve_train: sources(
                js,
                &shape.config(SERVE_STREAM_FILES, derive_seed(seed, SERVE_MODEL)),
            ),
            // A different file count changes only how many documents the
            // held-out stream yields; the JavaScript held-out files of
            // `heldout` are a prefix of these programs.
            programs: sources(js, &shape.config(shape.programs, held_seed)),
            coord: sources(
                js,
                &shape.config(shape.coord_files, derive_seed(seed, COORDINATE)),
            ),
        }
    }

    /// FNV-1a over every source, in a fixed order.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |s: &str| {
            for b in s.bytes().chain([0xff]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (_, docs) in self.train.iter().chain(&self.heldout) {
            docs.iter().for_each(|d| eat(d));
        }
        for docs in [&self.serve_train, &self.programs, &self.coord] {
            docs.iter().for_each(|d| eat(d));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bytes(i: &Inputs) -> Vec<u8> {
        let mut out = Vec::new();
        for (_, docs) in i.train.iter().chain(&i.heldout) {
            for d in docs {
                out.extend_from_slice(d.as_bytes());
            }
        }
        for docs in [&i.serve_train, &i.programs, &i.coord] {
            for d in docs {
                out.extend_from_slice(d.as_bytes());
            }
        }
        out
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for shape in SHAPES {
            let a = Inputs::generate(&shape, 7);
            let b = Inputs::generate(&shape, 7);
            assert_eq!(all_bytes(&a), all_bytes(&b), "{}", shape.name);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let shape = SHAPES[0];
        let a = Inputs::generate(&shape, 7);
        let b = Inputs::generate(&shape, 8);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn held_out_programs_use_a_seed_no_training_stream_uses() {
        for seed in 0..64 {
            let held = derive_seed(seed, HELD_OUT);
            for other in 0..64 {
                for stream in [TRAIN, SERVE_MODEL, COORDINATE] {
                    assert_ne!(held, derive_seed(other, stream));
                }
            }
        }
    }

    #[test]
    fn shapes_have_the_sizes_they_claim() {
        let shape = Shape::named("large").expect("large shape");
        let i = Inputs::generate(&shape, 3);
        assert_eq!(i.train.len(), 4);
        assert!(i.train.iter().all(|(_, d)| d.len() == shape.train_files));
        assert_eq!(i.programs.len(), shape.programs);
        assert_eq!(i.coord.len(), shape.coord_files);
        assert!(Shape::named("medium").is_none());
    }
}
