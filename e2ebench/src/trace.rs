//! The traced run: per-layer metrics.
//!
//! Two parts, both on the workload's corpus:
//!
//! 1. **Observed real runs.** The workload runs through `Pipeline` with a
//!    benchmark-owned [`PipelineObserver`] that sums `PhaseTiming`, stamps
//!    `IncrementIngested`, and counts `ComparisonEmitted`, `BlockGhosted`
//!    and `AdaptiveKChanged`. Each observed run is paired
//!    with an untraced run of the same build; the wall-clock ratio of the
//!    pairs is the tracing overhead.
//! 2. **Sequential replay.** A loop owned by the benchmark calls each layer's
//!    public functions in pipeline order on one thread, one span per call:
//!    first the single topology (with cluster-apply), then the sharded one,
//!    on every workload, so every layer is timed on every corpus. It is also
//!    the single-threaded baseline of the same job. It stops at the
//!    observed run's comparison count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pier_blocking::{IncrementalBlocker, PurgePolicy};
use pier_core::{AdaptiveK, ComparisonEmitter, PierConfig, Strategy};
use pier_entity::EntityIndex;
use pier_matching::{MatchFunction, MatchInput};
use pier_observe::{Event, Observer, Phase, PipelineObserver};
use pier_runtime::{tokenize_increment, RuntimeConfig, RuntimeReport};
use pier_shard::{ProfileStore, ShardMerger, ShardRouter, ShardWorker};
use pier_types::{Comparison, EntityProfile, ErKind, SharedTokenDictionary, TokenId, Tokenizer};

use crate::spans::{NameTotals, Open, Recorder};
use crate::stats::{median, quantile};
use crate::workload::{Corpus, Oracle, Workload};

/// Stops pairing runs once this share of the run length is spent, leaving
/// the rest to the replay.
const PAIRED_SHARE: f64 = 0.5;
/// The replay stops after this share of the run length at the latest.
const REPLAY_SHARE: f64 = 0.35;

/// Counts and timings a [`LayerObserver`] gathers from one run.
struct LayerObserver {
    phase_ns: [AtomicU64; 4],
    emitted: AtomicU64,
    /// Untagged `CfFiltered`. Attached to the replay's merger alone, these
    /// are its cross-shard duplicates; shard-tagged ones are emitter-local.
    cf_untagged: AtomicU64,
    k_changes: AtomicU64,
    ghost_kept: AtomicU64,
    ghost_dropped: AtomicU64,
    /// `(seq, when)` of every increment stage A finished ingesting.
    ingested: Mutex<Vec<(u64, Instant)>>,
    /// `(phase, end, secs)` of every timed phase, for the span file.
    phases: Mutex<Vec<(Phase, Instant, f64)>>,
}

impl LayerObserver {
    fn new() -> Self {
        LayerObserver {
            phase_ns: Default::default(),
            emitted: AtomicU64::new(0),
            cf_untagged: AtomicU64::new(0),
            k_changes: AtomicU64::new(0),
            ghost_kept: AtomicU64::new(0),
            ghost_dropped: AtomicU64::new(0),
            ingested: Mutex::new(Vec::new()),
            phases: Mutex::new(Vec::new()),
        }
    }

    fn phase(&self, phase: Phase, secs: f64) {
        let index = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("Phase::ALL lists every phase");
        self.phase_ns[index].fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
        self.phases
            .lock()
            .expect("observer lock is never held across a panic")
            .push((phase, Instant::now(), secs));
    }

    fn phase_s(&self, phase: Phase) -> f64 {
        let index = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("Phase::ALL lists every phase");
        self.phase_ns[index].load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Events every lane reports the same way.
    fn count(&self, event: &Event) {
        match *event {
            Event::ComparisonEmitted { .. } => {
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
            Event::AdaptiveKChanged { .. } => {
                self.k_changes.fetch_add(1, Ordering::Relaxed);
            }
            Event::BlockGhosted { kept, dropped, .. } => {
                self.ghost_kept.fetch_add(kept as u64, Ordering::Relaxed);
                self.ghost_dropped
                    .fetch_add(dropped as u64, Ordering::Relaxed);
            }
            Event::PhaseTiming { phase, secs } => self.phase(phase, secs),
            _ => {}
        }
    }
}

impl PipelineObserver for LayerObserver {
    fn on_event(&self, event: &Event) {
        match *event {
            Event::IncrementIngested { seq, .. } => self
                .ingested
                .lock()
                .expect("observer lock is never held across a panic")
                .push((seq, Instant::now())),
            Event::CfFiltered { .. } => {
                self.cf_untagged.fetch_add(1, Ordering::Relaxed);
            }
            _ => self.count(event),
        }
    }

    fn on_shard_event(&self, _shard: u16, event: &Event) {
        // A shard numbers its own ingests; only the router's untagged
        // `IncrementIngested` carries the stream position.
        self.count(event);
    }

    fn on_worker_event(&self, _worker: u16, event: &Event) {
        // Match workers time their own chunks; the coordinator's untagged
        // `Classify` already covers each batch end to end.
        if !matches!(event, Event::PhaseTiming { .. }) {
            self.count(event);
        }
    }
}

/// What one observed run measured.
struct Observed {
    wall_s: f64,
    block_s: f64,
    weight_s: f64,
    prune_s: f64,
    classify_s: f64,
    comparisons: f64,
    source_lag_p99_ms: f64,
    worker_skew: f64,
    k_changes: f64,
    restarts: f64,
    dead_letters: f64,
    shed: f64,
    emitted: f64,
    ghost_dropped_ratio: f64,
}

/// Counts of the single-topology replay.
#[derive(Default)]
struct SingleReplay {
    tokens: u64,
    distinct_tokens: u64,
    blocks: u64,
    purged: u64,
    scratch_high_water: u64,
    pulls: u64,
    empty_pulls: u64,
    emitted_gt: u64,
    evaluated: u64,
    matches: u64,
    applied: u64,
    merges: u64,
}

/// What the sharded replay measured.
struct ShardedReplay {
    /// Each shard's ingest seconds.
    ingest_s: Vec<f64>,
    /// Cross-shard duplicates the merger's comparison filter dropped.
    cf_filtered: u64,
}

/// One run of the pipeline, as the traced run needs it.
pub struct RunOutcome {
    pub report: RuntimeReport,
    pub wall_s: f64,
}

/// Result of the traced run.
pub struct Traced {
    /// `(name, value, unit)` of every per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Every real run made, for the output checks.
    pub runs: Vec<RunOutcome>,
    /// The spans of the observed and replayed runs.
    pub recorder: Recorder,
}

/// Runs the traced measurement of `workload` for about `seconds`.
pub fn run(
    workload: Workload,
    corpus: &Corpus,
    oracle: &Oracle,
    nproc: usize,
    seconds: f64,
) -> Traced {
    let kind = corpus.dataset.kind;
    let matcher = workload.matcher();
    let started = Instant::now();
    let mut recorder = Recorder::new(started);
    let mut runs = Vec::new();
    let mut untraced = Vec::new();
    let mut observed = Vec::new();

    // 1. Pairs of one untraced and one observed run, alternating which
    // goes first, until half the budget is spent.
    while runs.is_empty() || {
        let spent = started.elapsed().as_secs_f64();
        spent + spent / untraced.len() as f64 <= seconds * PAIRED_SHARE
    } {
        let observed_first = untraced.len() % 2 == 1;
        for traced in [observed_first, !observed_first] {
            let sink = Arc::new(LayerObserver::new());
            let mut pipeline = workload.pipeline(kind, nproc);
            if traced {
                pipeline =
                    pipeline.observe("layers", Arc::clone(&sink) as Arc<dyn PipelineObserver>);
                recorder.next_run();
            }
            let pipeline = pipeline.build().expect("workload configuration validates");
            let increments = corpus.increments.clone();
            let root = recorder.enter(if traced {
                "pipeline.run"
            } else {
                "pipeline.run.untraced"
            });
            let t0 = Instant::now();
            let report = pipeline.run(increments, Arc::clone(&matcher), |_| {});
            let wall_s = t0.elapsed().as_secs_f64();
            recorder.exit(root);
            if traced {
                observed.push(observe(
                    &sink,
                    &report,
                    wall_s,
                    t0,
                    workload.interarrival(),
                    &mut recorder,
                    root,
                ));
            } else {
                untraced.push(wall_s);
            }
            runs.push(RunOutcome { report, wall_s });
        }
    }
    let med = |f: fn(&Observed) -> f64| {
        median(&observed.iter().map(f).collect::<Vec<_>>()).expect("at least one observed run")
    };
    let budget = med(|o| o.comparisons) as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * REPLAY_SHARE);

    // 2. Sequential replays.
    let single_run = recorder.next_run();
    let single = replay_single(
        corpus,
        oracle,
        matcher.as_ref(),
        budget,
        deadline,
        &mut recorder,
    );
    let single_totals = recorder.totals(Some(single_run));
    let sharded_run = recorder.next_run();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let sharded = replay_sharded(
        kind,
        corpus,
        matcher.as_ref(),
        nproc,
        budget,
        deadline,
        &mut recorder,
    );
    let sharded_totals = recorder.totals(Some(sharded_run));

    let self_s = |totals: &BTreeMap<&'static str, NameTotals>, name: &str| {
        totals.get(name).map_or(0.0, |t| t.self_s)
    };
    let ratio_f = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ratio = |num: u64, den: u64| ratio_f(num as f64, den as f64);

    let evaluate_s = self_s(&single_totals, "matching.evaluate");
    let ns_per_pair = evaluate_s * 1e9 / single.evaluated.max(1) as f64;
    let classify_s = med(|o| o.classify_s);
    let observed_ns_per_pair = classify_s * 1e9 / med(|o| o.comparisons).max(1.0);
    let shard_ingest_s: f64 = sharded.ingest_s.iter().sum();
    let shard_mean = shard_ingest_s / sharded.ingest_s.len().max(1) as f64;
    let shard_max = sharded.ingest_s.iter().copied().fold(0.0, f64::max);
    let untraced_wall = median(&untraced).expect("at least one untraced run");
    let observed_wall = med(|o| o.wall_s);

    let metrics = vec![
        (
            "types.tokenize_s",
            self_s(&single_totals, "types.tokenize"),
            "s",
        ),
        ("types.tokens", single.tokens as f64, "count"),
        (
            "types.distinct_tokens",
            single.distinct_tokens as f64,
            "count",
        ),
        (
            "blocking.ingest_s",
            self_s(&single_totals, "blocking.ingest"),
            "s",
        ),
        ("blocking.blocks", single.blocks as f64, "count"),
        ("blocking.purged", single.purged as f64, "count"),
        (
            "blocking.ghost_dropped_ratio",
            med(|o| o.ghost_dropped_ratio),
            "ratio",
        ),
        ("core.weight_s", self_s(&single_totals, "core.weight"), "s"),
        (
            "core.scratch_high_water",
            single.scratch_high_water as f64,
            "count",
        ),
        ("core.pull_s", self_s(&single_totals, "core.pull"), "s"),
        ("core.pulls", single.pulls as f64, "count"),
        (
            "core.empty_pull_ratio",
            ratio(single.empty_pulls, single.pulls),
            "ratio",
        ),
        ("core.emitted", med(|o| o.emitted), "count"),
        (
            "core.pc",
            ratio(single.emitted_gt, oracle.ground_truth().len() as u64),
            "ratio",
        ),
        ("matching.evaluate_s", evaluate_s, "s"),
        ("matching.ns_per_pair", ns_per_pair, "ns"),
        (
            "matching.match_ratio",
            ratio(single.matches, single.evaluated),
            "ratio",
        ),
        (
            "entity.apply_s",
            self_s(&single_totals, "entity.apply"),
            "s",
        ),
        (
            "entity.merge_ratio",
            ratio(single.merges, single.applied),
            "ratio",
        ),
        ("shard.route_s", self_s(&sharded_totals, "shard.route"), "s"),
        ("shard.store_s", self_s(&sharded_totals, "shard.store"), "s"),
        ("shard.ingest_s", shard_ingest_s, "s"),
        ("shard.ingest_skew", ratio_f(shard_max, shard_mean), "ratio"),
        ("shard.pull_s", self_s(&sharded_totals, "shard.pull"), "s"),
        ("shard.merge_s", self_s(&sharded_totals, "shard.merge"), "s"),
        ("shard.cf_filtered", sharded.cf_filtered as f64, "count"),
        ("runtime.block_s", med(|o| o.block_s), "s"),
        ("runtime.weight_s", med(|o| o.weight_s), "s"),
        ("runtime.prune_s", med(|o| o.prune_s), "s"),
        ("runtime.classify_s", classify_s, "s"),
        (
            "runtime.classify_overhead",
            observed_ns_per_pair / ns_per_pair.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        (
            "runtime.residue_s",
            med(|o| o.wall_s - o.prune_s - o.classify_s),
            "s",
        ),
        (
            "runtime.source_lag_p99_ms",
            med(|o| o.source_lag_p99_ms),
            "ms",
        ),
        ("runtime.worker_skew", med(|o| o.worker_skew), "ratio"),
        ("runtime.k_changes", med(|o| o.k_changes), "count"),
        ("runtime.restarts", med(|o| o.restarts), "count"),
        ("runtime.dead_letters", med(|o| o.dead_letters), "count"),
        ("runtime.shed", med(|o| o.shed), "count"),
        (
            "runtime.tracing_overhead",
            observed_wall / untraced_wall - 1.0,
            "ratio",
        ),
    ];
    Traced {
        metrics,
        runs,
        recorder,
    }
}

/// Folds one observed run into an [`Observed`] and its phase events into
/// spans under `root`.
fn observe(
    sink: &LayerObserver,
    report: &RuntimeReport,
    wall_s: f64,
    started: Instant,
    interarrival: Duration,
    recorder: &mut Recorder,
    root: Open,
) -> Observed {
    for &(phase, end, secs) in sink
        .phases
        .lock()
        .expect("observer lock is never held across a panic")
        .iter()
    {
        let name = match phase {
            Phase::Block => "runtime.block",
            Phase::Weight => "runtime.weight",
            Phase::Prune => "runtime.prune",
            Phase::Classify => "runtime.classify",
        };
        let end_ns = recorder.ns_at(end);
        let start_ns = end_ns.saturating_sub((secs * 1e9) as u64);
        recorder.record(name, start_ns, end_ns, Some(root));
    }
    let lags: Vec<f64> = sink
        .ingested
        .lock()
        .expect("observer lock is never held across a panic")
        .iter()
        .map(|&(seq, at)| {
            let due = interarrival.as_secs_f64() * seq as f64;
            (at.saturating_duration_since(started).as_secs_f64() - due) * 1e3
        })
        .collect();
    let workers = &report.worker_comparisons;
    let mean = workers.iter().sum::<u64>() as f64 / workers.len().max(1) as f64;
    let max = workers.iter().copied().max().unwrap_or(0) as f64;
    let kept = sink.ghost_kept.load(Ordering::Relaxed);
    let dropped = sink.ghost_dropped.load(Ordering::Relaxed);
    Observed {
        wall_s,
        block_s: sink.phase_s(Phase::Block),
        weight_s: sink.phase_s(Phase::Weight),
        prune_s: sink.phase_s(Phase::Prune),
        classify_s: sink.phase_s(Phase::Classify),
        comparisons: report.comparisons as f64,
        source_lag_p99_ms: quantile(&lags, 0.99).unwrap_or(0.0),
        worker_skew: if mean > 0.0 { max / mean } else { 0.0 },
        k_changes: sink.k_changes.load(Ordering::Relaxed) as f64,
        restarts: report.worker_restarts as f64,
        dead_letters: report.dead_letters.len() as f64,
        shed: report.comparisons_shed as f64,
        emitted: sink.emitted.load(Ordering::Relaxed) as f64,
        ghost_dropped_ratio: if kept + dropped > 0 {
            dropped as f64 / (kept + dropped) as f64
        } else {
            0.0
        },
    }
}

/// Replays the single topology on one thread: tokenize, block, weight,
/// then one pull/evaluate/cluster-apply round per increment, and after the
/// last increment pull (ticking when idle) until drained, `budget`
/// comparisons are evaluated, or `deadline` passes.
fn replay_single(
    corpus: &Corpus,
    oracle: &Oracle,
    matcher: &dyn MatchFunction,
    budget: u64,
    deadline: Instant,
    rec: &mut Recorder,
) -> SingleReplay {
    let kind = corpus.dataset.kind;
    let config = RuntimeConfig::default();
    let dictionary = SharedTokenDictionary::new();
    let tokenizer = Tokenizer::default();
    let mut blocker = IncrementalBlocker::with_shared_dictionary(
        kind,
        Tokenizer::default(),
        config.purge_policy,
        dictionary.clone(),
    );
    let mut emitter = Strategy::Pes.build(PierConfig::default());
    let mut adaptive = AdaptiveK::new(config.k.0, config.k.1, config.k.2);
    let entities = EntityIndex::new();
    let ground_truth = oracle.ground_truth();
    let mut scratch = String::new();
    let mut out = SingleReplay::default();
    let origin = Instant::now();

    let root = rec.enter("replay.single");
    let round = |blocker: &IncrementalBlocker,
                 emitter: &mut Box<dyn ComparisonEmitter + Send>,
                 adaptive: &mut AdaptiveK,
                 rec: &mut Recorder,
                 out: &mut SingleReplay|
     -> bool {
        let k = adaptive.k();
        let batch = rec.time("core.pull", || {
            let batch = emitter.next_batch(blocker, k);
            emitter.drain_ops();
            batch
        });
        out.pulls += 1;
        if batch.is_empty() {
            out.empty_pulls += 1;
            return false;
        }
        out.emitted_gt += batch
            .iter()
            .filter(|c| ground_truth.contains(&c.key()))
            .count() as u64;
        let take = batch.len().min((budget - out.evaluated) as usize);
        let t0 = Instant::now();
        let matched: Vec<Comparison> = rec.time("matching.evaluate", || {
            batch[..take]
                .iter()
                .filter(|c| evaluate(matcher, blocker, **c))
                .copied()
                .collect()
        });
        let batch_secs = t0.elapsed().as_secs_f64();
        out.evaluated += take as u64;
        out.matches += matched.len() as u64;
        rec.time("entity.apply", || {
            for &cmp in &matched {
                out.applied += 1;
                out.merges += u64::from(entities.apply(cmp));
            }
        });
        rec.time("core.adaptive_k", || adaptive.record_batch(batch_secs));
        true
    };

    for (seq, increment) in corpus.increments.iter().enumerate() {
        // The pipeline receives owned increments, so the copy is harness
        // work and stays outside every span.
        let owned = increment.clone();
        let tokenized = rec.time("types.tokenize", || {
            tokenize_increment(&dictionary, &tokenizer, seq as u64, owned, &mut scratch)
        });
        rec.time("core.adaptive_k", || {
            adaptive.record_arrival(origin.elapsed().as_secs_f64())
        });
        let ids = rec.time("blocking.ingest", || {
            let mut ids = Vec::with_capacity(tokenized.len());
            for tp in tokenized.profiles {
                out.tokens += tp.tokens.len() as u64;
                let id = blocker
                    .try_process_profile_with_token_ids(tp.profile, &tp.tokens)
                    .expect("corpus profile ids are unique");
                ids.push(id);
            }
            ids
        });
        rec.time("core.weight", || {
            emitter.on_increment(&blocker, &ids);
            emitter.drain_ops();
        });
        if out.evaluated < budget && Instant::now() < deadline {
            round(&blocker, &mut emitter, &mut adaptive, rec, &mut out);
        }
    }
    while out.evaluated < budget && Instant::now() < deadline {
        if !round(&blocker, &mut emitter, &mut adaptive, rec, &mut out) {
            let made_work = rec.time("core.weight", || {
                emitter.on_increment(&blocker, &[]);
                emitter.drain_ops() > 0 || emitter.has_pending()
            });
            if !made_work {
                break;
            }
        }
    }
    rec.exit(root);

    out.distinct_tokens = dictionary.len() as u64;
    out.blocks = blocker.collection().block_count() as u64;
    out.purged = blocker.collection().purged_count() as u64;
    out.scratch_high_water = emitter.scratch_stats().map_or(0, |s| s.high_water as u64);
    out
}

fn evaluate(matcher: &dyn MatchFunction, blocker: &IncrementalBlocker, cmp: Comparison) -> bool {
    matcher
        .evaluate(MatchInput {
            profile_a: blocker.profile(cmp.a),
            tokens_a: blocker.tokens_of(cmp.a),
            profile_b: blocker.profile(cmp.b),
            tokens_b: blocker.tokens_of(cmp.b),
        })
        .is_match
}

/// Replays the sharded topology on one thread, as the threaded pipeline
/// lays it out: route (tokenize + partition), store + ghost floors +
/// fan-out, per-shard ingest, then k-way merged pulls (each shard pull a
/// child span of the merge) evaluated against the global store.
fn replay_sharded(
    kind: ErKind,
    corpus: &Corpus,
    matcher: &dyn MatchFunction,
    nproc: usize,
    budget: u64,
    deadline: Instant,
    rec: &mut Recorder,
) -> ShardedReplay {
    let shards = Workload::shards(nproc);
    let config = RuntimeConfig::default();
    let router = ShardRouter::new(shards);
    let mut store = ProfileStore::new();
    let mut workers: Vec<ShardWorker> = (0..shards)
        .map(|s| {
            ShardWorker::new(
                s,
                kind,
                Strategy::Pes,
                PierConfig::default(),
                PurgePolicy::default(),
                &Observer::disabled(),
            )
        })
        .collect();
    let cf = Arc::new(LayerObserver::new());
    let mut merger = ShardMerger::new(usize::from(shards));
    merger.set_observer(Observer::new(Arc::clone(&cf) as Arc<dyn PipelineObserver>));
    let mut adaptive = AdaptiveK::new(config.k.0, config.k.1, config.k.2);
    let mut scratch = String::new();
    let mut ingest_s = vec![0.0; usize::from(shards)];
    let mut evaluated = 0u64;
    let origin = Instant::now();

    let root = rec.enter("replay.sharded");
    let round = |workers: &mut Vec<ShardWorker>,
                 merger: &mut ShardMerger,
                 store: &ProfileStore,
                 adaptive: &mut AdaptiveK,
                 evaluated: &mut u64,
                 rec: &mut Recorder|
     -> bool {
        let k = adaptive.k();
        let merge = rec.enter("shard.merge");
        let batch = merger.next_batch_with(k, |s, n| {
            let pull = rec.enter("shard.pull");
            let out = workers[s].pull(n);
            rec.exit(pull);
            out
        });
        rec.exit(merge);
        if batch.is_empty() {
            return false;
        }
        let take = batch.len().min((budget - *evaluated) as usize);
        let t0 = Instant::now();
        rec.time("matching.evaluate", || {
            for &cmp in &batch[..take] {
                std::hint::black_box(matcher.evaluate(MatchInput {
                    profile_a: store.profile(cmp.a),
                    tokens_a: store.tokens_of(cmp.a),
                    profile_b: store.profile(cmp.b),
                    tokens_b: store.tokens_of(cmp.b),
                }));
            }
        });
        *evaluated += take as u64;
        adaptive.record_batch(t0.elapsed().as_secs_f64());
        true
    };

    for increment in &corpus.increments {
        // Harness copy, outside every span (see `replay_single`).
        let owned: Vec<EntityProfile> = increment.clone();
        let routed: Vec<_> = rec.time("shard.route", || {
            owned
                .iter()
                .map(|p| router.route_profile(p, &mut scratch))
                .collect()
        });
        adaptive.record_arrival(origin.elapsed().as_secs_f64());
        let per_shard = rec.time("shard.store", || {
            let meta: Vec<_> = owned.iter().map(|p| (p.id, p.source)).collect();
            let mut per_shard: Vec<Vec<(EntityProfile, Vec<TokenId>, usize)>> =
                (0..shards).map(|_| Vec::new()).collect();
            for (profile, routed) in owned.into_iter().zip(&routed) {
                store
                    .insert(profile, &routed.tokens)
                    .expect("corpus profile ids are unique");
            }
            for (&(id, source), routed) in meta.iter().zip(routed) {
                let floor = store.min_token_count(id).unwrap_or(1);
                for (shard, tokens) in routed.by_shard {
                    per_shard[usize::from(shard)].push((
                        EntityProfile::new(id, source),
                        tokens,
                        floor,
                    ));
                }
            }
            per_shard
        });
        for (s, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let span = rec.enter("shard.ingest");
            let errors = workers[s].ingest(&batch);
            rec.exit(span);
            ingest_s[s] += rec.duration_s(span);
            assert!(errors.is_empty(), "corpus profile ids are unique");
        }
        if evaluated < budget && Instant::now() < deadline {
            round(
                &mut workers,
                &mut merger,
                &store,
                &mut adaptive,
                &mut evaluated,
                rec,
            );
        }
    }
    while evaluated < budget && Instant::now() < deadline {
        if !round(
            &mut workers,
            &mut merger,
            &store,
            &mut adaptive,
            &mut evaluated,
            rec,
        ) {
            let made_work = rec.time("shard.tick", || {
                let mut made_work = false;
                for w in &mut workers {
                    made_work |= w.tick();
                }
                made_work
            });
            if !made_work {
                break;
            }
        }
    }
    rec.exit(root);
    ShardedReplay {
        ingest_s,
        cf_filtered: cf.cf_untagged.load(Ordering::Relaxed),
    }
}
