//! The portable optimising compiler (Figure 2): train once off-line, then
//! compile any new program for any new microarchitecture using one `-O3`
//! profiling run.

use crate::dataset::Dataset;
use portopt_ir::interp::ExecLimits;
use portopt_ir::Module;
use portopt_ml::{
    IidDistribution, KnnModel, Model, ModelKind, ModelOptions, TrainError, DEFAULT_BETA, DEFAULT_K,
    DEFAULT_K_CLUSTERS, DEFAULT_RIDGE_LAMBDA,
};
use portopt_passes::{compile, CodeImage, OptConfig, OptSpace};
use portopt_sim::{evaluate, profile, TimingResult};
use portopt_uarch::{FeatureVec, MicroArch, PerfCounters};
use serde::{Deserialize, Serialize, Value};

/// The fraction of sampled settings considered "good" (paper: top 5 %).
pub const GOOD_FRACTION: f64 = 0.05;

/// Training hyper-parameters, covering every model kind in the zoo (each
/// trainer reads the fields it understands).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Neighbour count (paper: 7).
    pub k: usize,
    /// Softmax inverse temperature (paper: 1).
    pub beta: f64,
    /// Good-set fraction (paper: 0.05).
    pub good_fraction: f64,
    /// Ridge penalty λ for the `linear` model kind.
    pub ridge_lambda: f64,
    /// Cluster count for the `clustered` model kind.
    pub k_clusters: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            k: DEFAULT_K,
            beta: DEFAULT_BETA,
            good_fraction: GOOD_FRACTION,
            ridge_lambda: DEFAULT_RIDGE_LAMBDA,
            k_clusters: DEFAULT_K_CLUSTERS,
        }
    }
}

impl TrainOptions {
    /// The model-zoo subset of these options, in `portopt_ml`'s terms.
    pub fn model_options(&self) -> ModelOptions {
        ModelOptions {
            k: self.k,
            beta: self.beta,
            ridge_lambda: self.ridge_lambda,
            k_clusters: self.k_clusters,
        }
    }
}

/// A trained portable optimising compiler: any model from the
/// `portopt_ml` zoo behind the deployment flow of Figure 2.
#[derive(Debug, Clone)]
pub struct PortableCompiler {
    model: Box<dyn Model>,
}

// Hand-written serde: the wire shape stays `{"model": <payload>}` for the
// kNN kind — byte-identical to what the derive produced when `model` was
// a concrete `KnnModel`, so existing snapshots load as-is — and grows a
// trailing `"model_kind"` tag only for the other kinds (absent tag =
// kNN). Snapshot files additionally carry the kind in their validated
// header; this in-payload copy keeps `PortableCompiler` self-describing
// for direct serde users.
impl Serialize for PortableCompiler {
    fn to_value(&self) -> Value {
        let mut fields = vec![("model".to_string(), self.model.payload())];
        if self.model.kind() != ModelKind::Knn {
            fields.push(("model_kind".to_string(), self.model.kind().to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for PortableCompiler {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let kind = match v.field("model_kind") {
            Ok(tag) => ModelKind::from_value(tag)?,
            Err(_) => ModelKind::Knn,
        };
        Ok(PortableCompiler {
            model: portopt_ml::decode_model(kind, v.field("model")?)?,
        })
    }
}

impl PortableCompiler {
    /// Trains on every pair of `ds`, excluding program `skip_prog` and
    /// configuration `skip_uarch` when given — the leave-one-out protocol
    /// of §5.1.1 (the test program and test microarchitecture are *never*
    /// in the training set).
    pub fn train(
        ds: &Dataset,
        skip_prog: Option<usize>,
        skip_uarch: Option<usize>,
        opts: &TrainOptions,
    ) -> Self {
        match Self::try_train(ds, skip_prog, skip_uarch, opts) {
            Ok(pc) => pc,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`train`](Self::train) with malformed input reported as a typed
    /// error instead of a panic — the entry point for operator-facing
    /// tools (the `snapshot` bin) where "the dataset had no usable pairs"
    /// must be a diagnostic, not a crash. The only realistic failure here
    /// is [`TrainError::Empty`]: skipping the last program/uarch of a
    /// minimal dataset can leave zero training pairs. Trains the paper's
    /// kNN model; [`try_train_kind`](Self::try_train_kind) picks another
    /// kind from the zoo.
    pub fn try_train(
        ds: &Dataset,
        skip_prog: Option<usize>,
        skip_uarch: Option<usize>,
        opts: &TrainOptions,
    ) -> Result<Self, TrainError> {
        Self::try_train_kind(ds, skip_prog, skip_uarch, ModelKind::Knn, opts)
    }

    /// [`try_train`](Self::try_train) for any model kind in the zoo.
    pub fn try_train_kind(
        ds: &Dataset,
        skip_prog: Option<usize>,
        skip_uarch: Option<usize>,
        kind: ModelKind,
        opts: &TrainOptions,
    ) -> Result<Self, TrainError> {
        let (features, dists) = Self::training_pairs(ds, skip_prog, skip_uarch, opts.good_fraction);
        Ok(PortableCompiler {
            model: portopt_ml::try_train_kind(kind, features, dists, &opts.model_options())?,
        })
    }

    /// Wraps an already-trained model (differential tests that must
    /// compare two kinds over the same training pairs build both sides
    /// from [`training_pairs`](Self::training_pairs) and wrap them here).
    pub fn from_model(model: Box<dyn Model>) -> Self {
        PortableCompiler { model }
    }

    /// The per-pair training inputs every model kind is fitted to:
    /// features and good-set distributions in dataset order, with the
    /// leave-one-out holdouts excluded. Exposed so differential tests can
    /// train a concrete model from exactly the pairs
    /// [`try_train_kind`](Self::try_train_kind) uses.
    pub fn training_pairs(
        ds: &Dataset,
        skip_prog: Option<usize>,
        skip_uarch: Option<usize>,
        good_fraction: f64,
    ) -> (Vec<Vec<f64>>, Vec<IidDistribution>) {
        let dims: Vec<usize> = OptSpace::dims().iter().map(|d| d.cardinality).collect();
        let mut features = Vec::new();
        let mut dists = Vec::new();
        for p in 0..ds.n_programs() {
            if Some(p) == skip_prog {
                continue;
            }
            for u in 0..ds.n_uarchs() {
                if Some(u) == skip_uarch {
                    continue;
                }
                let good: Vec<Vec<u8>> = ds
                    .good_set(p, u, good_fraction)
                    .into_iter()
                    .map(|c| ds.configs[c].to_choices())
                    .collect();
                dists.push(IidDistribution::fit(&dims, &good));
                features.push(ds.features[p][u].values.clone());
            }
        }
        (features, dists)
    }

    /// Predicts the best optimisation setting from a feature vector.
    pub fn predict(&self, x: &FeatureVec) -> OptConfig {
        self.predict_features(&x.values)
    }

    /// Predicts from raw feature values — [`predict`](Self::predict)
    /// without wrapping the slice in a `FeatureVec` (the serving hot path
    /// calls this straight off the decoded request, clone-free).
    pub fn predict_features(&self, values: &[f64]) -> OptConfig {
        OptConfig::from_choices(&self.model.predict_mode(values))
    }

    /// [`predict_features`](Self::predict_features), also handing back the
    /// canonical choice vector the prediction was decoded from. The serve
    /// reply carries both representations; computing them in one pass
    /// spares the hot path a round trip through
    /// `OptConfig::to_choices` per request.
    pub fn predict_features_choices(&self, values: &[f64]) -> (OptConfig, Vec<u8>) {
        let choices = self.model.predict_mode(values);
        (OptConfig::from_choices(&choices), choices)
    }

    /// Predicts from counters + microarchitecture description (the two
    /// extra inputs of Figure 2).
    pub fn predict_from_counters(&self, c: &PerfCounters, d: &MicroArch) -> OptConfig {
        self.predict(&FeatureVec::new(c, d))
    }

    /// The full Figure 2 deployment flow for a new program on a new
    /// microarchitecture: one `-O3` profiling run to read the counters,
    /// one prediction, one recompilation.
    ///
    /// Returns the optimised image, the predicted setting, and the timing
    /// of the profiling run (whose counters fed the prediction).
    pub fn optimise(
        &self,
        module: &Module,
        target: &MicroArch,
    ) -> (CodeImage, OptConfig, TimingResult) {
        let limits = ExecLimits {
            fuel: 100_000_000,
            max_depth: 2048,
        };
        let img3 = compile(module, &OptConfig::o3());
        let prof3 = profile(&img3, module, &[], limits).expect("O3 run");
        let t3 = evaluate(&img3, &prof3, target);
        let cfg = self.predict_from_counters(&t3.counters, target);
        (compile(module, &cfg), cfg, t3)
    }

    /// Access to the underlying model (for analysis).
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// The concrete kNN model, when this compiler holds one — `None` for
    /// the other kinds in the zoo. Analysis paths that need kNN-only
    /// structure (the blocked feature matrix, the oracle predictors) go
    /// through here.
    pub fn knn(&self) -> Option<&KnnModel> {
        self.model.as_any().downcast_ref::<KnnModel>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{GenOptions, Sweep, SweepScale};
    use portopt_ir::{FuncBuilder, ModuleBuilder};

    fn program(name: &str, mem_heavy: bool) -> (String, Module) {
        let mut mb = ModuleBuilder::new(name);
        let (_, base) = mb.global("buf", 2048);
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        let acc = b.iconst(0);
        b.counted_loop(0, 500, 1, |b, i| {
            if mem_heavy {
                let off0 = b.mul(i, 13);
                let off = b.and(off0, 2047);
                let sh = b.shl(off, 2);
                let a = b.add(p, sh);
                let v = b.load(a, 0);
                let w = b.add(v, i);
                b.store(w, a, 0);
                let t = b.add(acc, w);
                b.assign(acc, t);
            } else {
                let sq = b.mul(i, i);
                let x = b.xor(acc, sq);
                let s = b.shl(x, 1);
                let m = b.and(s, 0xFFFF_FFFF);
                b.assign(acc, m);
            }
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        (name.to_string(), mb.finish())
    }

    fn small_dataset() -> Dataset {
        let programs = vec![
            program("mem1", true),
            program("alu1", false),
            program("mem2", true),
            program("alu2", false),
        ];
        Sweep::new(GenOptions {
            scale: SweepScale {
                n_uarch: 5,
                n_opts: 30,
            },
            seed: 11,
            extended_space: false,
            threads: 2,
        })
        .run(&programs)
        .0
    }

    #[test]
    fn leave_one_out_prediction_is_reasonable() {
        let ds = small_dataset();
        // Predict for (program 0, uarch 0) having never trained on either.
        let pc = PortableCompiler::train(&ds, Some(0), Some(0), &TrainOptions::default());
        let cfg = pc.predict(&ds.features[0][0]);
        // The predicted setting, evaluated via the dataset's own grid if
        // present, or fresh: just check prediction is valid and the flow
        // runs end to end.
        let choices = cfg.to_choices();
        assert_eq!(choices.len(), OptSpace::n_dims());
    }

    #[test]
    fn training_excludes_the_test_pair() {
        let ds = small_dataset();
        let full = PortableCompiler::train(&ds, None, None, &TrainOptions::default());
        let loo = PortableCompiler::train(&ds, Some(0), Some(0), &TrainOptions::default());
        assert_eq!(full.model().len(), 4 * 5);
        assert_eq!(loo.model().len(), 3 * 4);
    }

    #[test]
    fn optimise_flow_beats_or_matches_o3_on_average() {
        let ds = small_dataset();
        let pc = PortableCompiler::train(&ds, None, None, &TrainOptions::default());
        // Deploy on a program from the suite (in-sample here; the full
        // leave-one-out evaluation lives in portopt-experiments).
        let (name, module) = program("mem_eval", true);
        let _ = name;
        let target = ds.uarchs[0];
        let (img, cfg, t3) = pc.optimise(&module, &target);
        let prof = profile(
            &img,
            &module,
            &[],
            ExecLimits {
                fuel: 100_000_000,
                max_depth: 2048,
            },
        )
        .unwrap();
        let t = evaluate(&img, &prof, &target);
        // Not a strict win requirement at this scale, but the flow must be
        // coherent and within a sane band of the baseline.
        assert!(t.cycles > 0.0);
        assert!(t.cycles < t3.cycles * 2.0, "predicted config catastrophic");
        let _ = cfg;
    }

    #[test]
    fn serialization_round_trip() {
        let ds = small_dataset();
        let pc = PortableCompiler::train(&ds, None, None, &TrainOptions::default());
        let json = serde_json::to_string(&pc).unwrap();
        let back: PortableCompiler = serde_json::from_str(&json).unwrap();
        let x = &ds.features[0][0];
        assert_eq!(pc.predict(x), back.predict(x));
        // The kNN wire shape is untagged — old snapshots stay decodable.
        assert!(!json.contains("model_kind"));
    }

    #[test]
    fn every_model_kind_trains_and_round_trips() {
        let ds = small_dataset();
        let opts = TrainOptions::default();
        for kind in ModelKind::ALL {
            let pc = PortableCompiler::try_train_kind(&ds, None, None, kind, &opts).unwrap();
            assert_eq!(pc.model().kind(), kind);
            assert_eq!(pc.knn().is_some(), kind == ModelKind::Knn);
            let json = serde_json::to_string(&pc).unwrap();
            assert_eq!(json.contains("model_kind"), kind != ModelKind::Knn);
            let back: PortableCompiler = serde_json::from_str(&json).unwrap();
            assert_eq!(back.model().kind(), kind);
            let x = &ds.features[0][0];
            assert_eq!(pc.predict(x), back.predict(x));
        }
    }

    #[test]
    fn trait_dispatch_matches_concrete_knn() {
        let ds = small_dataset();
        let opts = TrainOptions::default();
        let (features, dists) =
            PortableCompiler::training_pairs(&ds, Some(0), Some(0), opts.good_fraction);
        let concrete = KnnModel::try_train(features, dists, opts.k, opts.beta).unwrap();
        let pc =
            PortableCompiler::try_train_kind(&ds, Some(0), Some(0), ModelKind::Knn, &opts).unwrap();
        assert_eq!(pc.knn().unwrap(), &concrete);
        for p in 0..ds.n_programs() {
            let x = &ds.features[p][0].values;
            assert_eq!(pc.model().predict_mode(x), concrete.predict_mode(x));
        }
    }
}
