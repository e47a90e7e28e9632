//! The three workloads: corpus, matcher and pipeline shape of each, and the
//! output checks every run's report goes through.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use pier_core::{PierConfig, Strategy};
use pier_datagen::{generate_census, generate_dbpedia, CensusConfig, DbpediaConfig};
use pier_entity::EntityIndex;
use pier_matching::{EditDistanceMatcher, JaccardMatcher, MatchFunction, MatchInput};
use pier_runtime::{Pipeline, PipelineBuilder, RuntimeConfig, RuntimeReport};
use pier_shard::ShardedConfig;
use pier_types::{
    Comparison, Dataset, EntityProfile, ErKind, ProfileId, SharedTokenDictionary, SourceId,
    TokenId, Tokenizer,
};

use crate::stats::Json;

/// Census-style Dirty ER corpus of the `js-*` workloads.
const JS_PROFILES: usize = 20_000;
/// Increments the `js-*` corpus is split into.
const JS_INCREMENTS: usize = 100;
/// dbpedia-style Clean-Clean corpus of `ed-paced`.
const ED_SOURCE0: usize = 180;
const ED_SOURCE1: usize = 320;
const ED_MATCHES: usize = 135;
/// Increments of `ed-paced` and the fixed time between them.
const ED_INCREMENTS: usize = 25;
const ED_INTERARRIVAL: Duration = Duration::from_millis(60);
/// `ed-paced` winds down this long after its last increment is due.
const ED_MARGIN: Duration = Duration::from_secs(2);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Census JS, `interarrival = 0`, single topology: stage A and stage-B
    /// dispatch set the wall clock.
    JsSaturated,
    /// dbpedia ED at a fixed increment rate with entity clustering: how
    /// soon each duplicate is confirmed (paper Fig. 7).
    EdPaced,
    /// `JsSaturated`'s job through the sharded stage A (`shards = nproc`).
    JsSharded,
}

/// A generated corpus and the increments the program receives.
pub struct Corpus {
    pub dataset: Dataset,
    pub increments: Vec<Vec<EntityProfile>>,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::JsSaturated,
        Workload::EdPaced,
        Workload::JsSharded,
    ];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JsSaturated => "js-saturated",
            Workload::EdPaced => "ed-paced",
            Workload::JsSharded => "js-sharded",
        }
    }

    /// Whether a run consumes the whole stream and drains stage A (no
    /// deadline cuts it short), so the report must count every profile.
    pub fn drains(self) -> bool {
        self != Workload::EdPaced
    }

    /// Whether the pipeline runs the sharded stage A.
    pub fn sharded(self) -> bool {
        self == Workload::JsSharded
    }

    /// Whether entity clustering is on.
    pub fn entities(self) -> bool {
        self == Workload::EdPaced
    }

    /// The match function of the workload.
    pub fn matcher(self) -> Arc<dyn MatchFunction> {
        match self {
            Workload::EdPaced => Arc::new(EditDistanceMatcher::default()),
            Workload::JsSaturated | Workload::JsSharded => Arc::new(JaccardMatcher::default()),
        }
    }

    /// Time between increments at the source.
    pub fn interarrival(self) -> Duration {
        match self {
            Workload::EdPaced => ED_INTERARRIVAL,
            Workload::JsSaturated | Workload::JsSharded => Duration::ZERO,
        }
    }

    /// Generates the corpus for `seed` and splits it into increments.
    pub fn corpus(self, seed: u64) -> Corpus {
        let (dataset, increments) = match self {
            Workload::JsSaturated | Workload::JsSharded => (
                generate_census(&CensusConfig {
                    seed,
                    target_profiles: JS_PROFILES,
                }),
                JS_INCREMENTS,
            ),
            Workload::EdPaced => (
                generate_dbpedia(&DbpediaConfig {
                    seed,
                    source0_size: ED_SOURCE0,
                    source1_size: ED_SOURCE1,
                    matches: ED_MATCHES,
                }),
                ED_INCREMENTS,
            ),
        };
        let increments = dataset
            .into_increments(increments)
            .expect("every corpus holds more profiles than increments")
            .into_iter()
            .map(|i| i.profiles)
            .collect();
        Corpus {
            dataset,
            increments,
        }
    }

    /// Stage-A shard count: one per core.
    pub fn shards(nproc: usize) -> u16 {
        u16::try_from(nproc.max(1)).unwrap_or(u16::MAX)
    }

    /// The run configuration: the default, except for what the workload
    /// names.
    pub fn config(self) -> RuntimeConfig {
        let mut config = RuntimeConfig {
            interarrival: self.interarrival(),
            ..RuntimeConfig::default()
        };
        if self == Workload::EdPaced {
            let stream = self.interarrival() * (ED_INCREMENTS as u32 - 1);
            config.deadline = stream + ED_MARGIN;
            config.entities = Some(EntityIndex::shared());
        }
        config
    }

    /// The unbuilt pipeline of one run; callers add observers and build.
    pub fn pipeline(self, kind: ErKind, nproc: usize) -> PipelineBuilder {
        let single = Pipeline::builder(kind).config(self.config());
        if self.sharded() {
            single.sharded(ShardedConfig {
                shards: Workload::shards(nproc),
                strategy: Strategy::Pes,
                pier: PierConfig::default(),
                ..ShardedConfig::default()
            })
        } else {
            single
        }
    }

    /// The workload's parameters, for the provenance of every result.
    pub fn params(self, nproc: usize) -> Json {
        let config = self.config();
        let corpus = match self {
            Workload::JsSaturated | Workload::JsSharded => Json::obj([
                ("generator", Json::str("census")),
                ("target_profiles", Json::Int(JS_PROFILES as u64)),
            ]),
            Workload::EdPaced => Json::obj([
                ("generator", Json::str("dbpedia")),
                ("source0_size", Json::Int(ED_SOURCE0 as u64)),
                ("source1_size", Json::Int(ED_SOURCE1 as u64)),
                ("matches", Json::Int(ED_MATCHES as u64)),
            ]),
        };
        let increments = match self {
            Workload::EdPaced => ED_INCREMENTS,
            Workload::JsSaturated | Workload::JsSharded => JS_INCREMENTS,
        };
        Json::obj([
            ("corpus", corpus),
            ("increments", Json::Int(increments as u64)),
            (
                "interarrival_ms",
                Json::Num(config.interarrival.as_secs_f64() * 1e3),
            ),
            ("deadline_s", Json::Num(config.deadline.as_secs_f64())),
            ("matcher", Json::str(self.matcher().name())),
            (
                "topology",
                Json::str(if self.sharded() { "sharded" } else { "single" }),
            ),
            ("strategy", Json::str("I-PES")),
            (
                "shards",
                Json::Int(if self.sharded() {
                    u64::from(Workload::shards(nproc))
                } else {
                    1
                }),
            ),
            ("match_workers", Json::Int(config.match_workers as u64)),
            ("entities", Json::Bool(self.entities())),
        ])
    }
}

/// What the output checks found in one report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    /// Confirmed pairs that are ground-truth pairs.
    pub confirmed_gt: u64,
    /// Confirmed pairs that fail a check (unknown profile, same source
    /// under Clean-Clean, a repeat, or rejected by the matcher re-run).
    pub bad_pairs: u64,
    /// Profiles the report is missing on a draining workload.
    pub missing_profiles: u64,
}

impl Checked {
    /// Failed checks of this report.
    pub fn failures(&self) -> u64 {
        self.bad_pairs + self.missing_profiles
    }
}

/// Everything the checks need about a corpus, computed once outside every
/// timer: each profile's source, increment and tokens, the ground truth,
/// and the ground-truth pairs the matcher accepts (recall's ceiling).
pub struct Oracle {
    kind: ErKind,
    matcher: Arc<dyn MatchFunction>,
    drains: bool,
    total_profiles: usize,
    index: HashMap<ProfileId, usize>,
    profiles: Vec<EntityProfile>,
    sources: Vec<SourceId>,
    seqs: Vec<u64>,
    tokens: Vec<Vec<TokenId>>,
    ground_truth: HashSet<u64>,
    /// Ground-truth pairs the matcher accepts.
    pub accepted_gt: u64,
}

impl Oracle {
    /// Builds the oracle of `corpus` under `workload`'s matcher.
    pub fn new(workload: Workload, corpus: &Corpus) -> Oracle {
        let matcher = workload.matcher();
        let dictionary = SharedTokenDictionary::new();
        let tokenizer = Tokenizer::default();
        let mut scratch = String::new();
        let mut index = HashMap::new();
        let mut profiles = Vec::new();
        let mut sources = Vec::new();
        let mut seqs = Vec::new();
        let mut tokens = Vec::new();
        for (seq, increment) in corpus.increments.iter().enumerate() {
            for profile in increment {
                index.insert(profile.id, profiles.len());
                sources.push(profile.source);
                seqs.push(seq as u64);
                tokens.push(dictionary.tokenize_and_intern(&tokenizer, profile, &mut scratch));
                profiles.push(profile.clone());
            }
        }
        let mut oracle = Oracle {
            kind: corpus.dataset.kind,
            matcher,
            drains: workload.drains(),
            total_profiles: profiles.len(),
            index,
            profiles,
            sources,
            seqs,
            tokens,
            ground_truth: corpus
                .dataset
                .ground_truth
                .iter()
                .map(|c| c.key())
                .collect(),
            accepted_gt: 0,
        };
        oracle.accepted_gt = corpus
            .dataset
            .ground_truth
            .iter()
            .filter(|&c| oracle.accepts(c) == Some(true))
            .count() as u64;
        oracle
    }

    /// Ground-truth pairs in the corpus.
    pub fn ground_truth(&self) -> &HashSet<u64> {
        &self.ground_truth
    }

    /// The increment that delivered `p`.
    fn seq_of(&self, p: ProfileId) -> Option<u64> {
        self.index.get(&p).map(|&i| self.seqs[i])
    }

    /// Whether the matcher, re-run from outside, accepts `cmp` (`None`
    /// when a profile is not in the corpus).
    fn accepts(&self, cmp: Comparison) -> Option<bool> {
        let a = *self.index.get(&cmp.a)?;
        let b = *self.index.get(&cmp.b)?;
        let outcome = self.matcher.evaluate(MatchInput {
            profile_a: &self.profiles[a],
            tokens_a: &self.tokens[a],
            profile_b: &self.profiles[b],
            tokens_b: &self.tokens[b],
        });
        Some(outcome.is_match)
    }

    /// Runs the output checks on `report`.
    pub fn check(&self, report: &RuntimeReport) -> Checked {
        let mut out = Checked::default();
        let mut seen = HashSet::with_capacity(report.matches.len());
        for event in &report.matches {
            let cmp = event.pair;
            let known = match (self.index.get(&cmp.a), self.index.get(&cmp.b)) {
                (Some(&a), Some(&b)) => Some((a, b)),
                _ => None,
            };
            let valid = match known {
                None => false,
                Some((a, b)) => {
                    cmp.a != cmp.b
                        && (self.kind != ErKind::CleanClean || self.sources[a] != self.sources[b])
                }
            };
            let first = seen.insert(cmp.key());
            if !(valid && first && self.accepts(cmp) == Some(true)) {
                out.bad_pairs += 1;
                continue;
            }
            if self.ground_truth.contains(&cmp.key()) {
                out.confirmed_gt += 1;
            }
        }
        if self.drains {
            out.missing_profiles = self.total_profiles.abs_diff(report.profiles) as u64;
        }
        out
    }

    /// Recall of a checked report: confirmed ground-truth pairs over the
    /// ground-truth pairs the matcher accepts.
    pub fn recall(&self, checked: &Checked) -> f64 {
        checked.confirmed_gt as f64 / self.accepted_gt.max(1) as f64
    }

    /// Match latencies in ms: confirmation time minus the time the
    /// increment of the pair's later-arriving profile was due.
    pub fn latencies_ms(&self, report: &RuntimeReport, interarrival: Duration) -> Vec<f64> {
        report
            .matches
            .iter()
            .filter_map(|event| {
                let seq = self.seq_of(event.pair.a)?.max(self.seq_of(event.pair.b)?);
                let due = interarrival.as_secs_f64() * seq as f64;
                Some((event.at.as_secs_f64() - due) * 1e3)
            })
            .collect()
    }
}
