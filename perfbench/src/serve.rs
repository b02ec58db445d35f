//! Serving half of a workload: freeze the trained DIN through a checkpoint
//! and score an open-loop request stream through `ScoreEngine`.
//!
//! The loop runs on **virtual time**. The benchmark may read time only
//! through profile-scope deltas (see `clock.rs`), so it does not sleep until
//! a request is due or spin while the server is idle. Instead, request `i`
//! is due at `i / rate` on a virtual timeline; the server takes every
//! request due by its current virtual time as one queue, the queue is
//! scored by `ScoreEngine::score_queue` with its host time measured, and the
//! virtual clock advances by that measured service time (or jumps to the
//! next due time when the queue is empty). A request's latency is its
//! round's virtual finish time minus its due time, so queueing behind
//! earlier rounds counts. The generator is never late on this timeline.
//!
//! The open-loop phases serve on [`OPEN_LOOP_THREADS`] thread. With the
//! pool at two threads, every round that forms more than one batch spawns
//! a worker and waits for it; on a shared 2-vCPU host the worker's vCPU is
//! often parked, and waking it took up to 30 ms, so p99 at 1000 req/s read
//! 5–30 ms against 0.6–1.2 ms on one thread, and the tails measured the
//! host's scheduler. The backlog phase keeps the process's thread count:
//! its rounds are long enough to amortise the wake.

use crate::clock::Tracer;
use crate::stats::{band_quantile, quantile};
use miss_data::{request_stream, Batch, Dataset, Sample, ScoreRequest, Split, World};
use miss_serve::{FrozenModel, ScoreEngine};
use miss_util::{MissResult, Rng};
use std::collections::BTreeSet;
use std::ops::Range;

/// Slate sizes, drawn uniformly per request (mean 21.25 candidates).
pub const SLATES: [usize; 4] = [1, 4, 16, 64];
/// `ScoreEngine` flush size in candidates.
pub const MAX_BATCH: usize = 64;
/// Fixed offered rates (requests per second) of the low and high phases.
pub const LOW_RATE: f64 = 1000.0;
pub const HIGH_RATE: f64 = 2000.0;
/// Pool threads of the open-loop phases (see the module docs).
pub const OPEN_LOOP_THREADS: usize = 1;
/// Latency limit on p99 for the highest-rate search.
pub const LIMIT_MS: f64 = 20.0;
/// Rank bands the latency quantiles average over (see `band_quantile`).
/// The p50 band spans the middle quarter of the ranks: with a quarter of
/// the requests at each slate size, the median sits between the 4- and
/// 16-candidate clusters, and the band takes the upper half of one and the
/// lower half of the other rather than their jittery edges.
const P50_BAND: f64 = 0.125;
const P99_BAND: f64 = 0.005;

/// User context of a request: user id and behaviour history, the fields
/// `request_stream` copies unchanged from the base sample.
fn context_key(s: &Sample) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x100000001b3);
    eat(s.cat.first().copied().unwrap_or(0) as u64);
    for seq in &s.hist {
        eat(seq.len() as u64);
        for &v in seq {
            eat(v as u64);
        }
    }
    h
}

/// `n` requests with slate sizes drawn uniformly from [`SLATES`], users drawn
/// uniformly from the test split, and no user context used twice. Sizes are
/// stratified: each size fills a quarter of the pool, in seeded random
/// order, so every seed serves the same candidate mix. Built from
/// `request_stream` calls (one per slate size, oversampled, redrawn with a
/// new seed when a size runs out); deterministic in `seed`.
pub fn request_pool(
    world: &World,
    data: &Dataset,
    n: usize,
    seed: u64,
) -> Result<Vec<ScoreRequest>, String> {
    let mut rng = Rng::new(seed ^ 0x51A7E);
    let mut sizes: Vec<usize> = (0..n).map(|i| i % SLATES.len()).collect();
    rng.shuffle(&mut sizes);
    let mut streams: Vec<std::vec::IntoIter<ScoreRequest>> =
        vec![Vec::new().into_iter(); SLATES.len()];
    let mut used = BTreeSet::new();
    let mut pool = Vec::with_capacity(n);
    let mut draws = 0u64;
    for &k in &sizes {
        loop {
            let Some(stream) = streams.get_mut(k) else {
                return Err(format!("slate index {k} out of range"));
            };
            if let Some(req) = stream.next() {
                let key = req.samples.first().map(context_key);
                if key.is_some_and(|key| used.insert(key)) {
                    pool.push(req);
                    break;
                }
                continue;
            }
            draws += 1;
            if draws > 64 {
                return Err(format!(
                    "test split has too few distinct user contexts for {n} requests"
                ));
            }
            let want = sizes.iter().filter(|&&s| s == k).count() * 3 / 2 + 8;
            let stream_seed = seed ^ draws.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            *stream =
                request_stream(world, data, Split::Test, want, SLATES[k], stream_seed).into_iter();
        }
    }
    Ok(pool)
}

/// Order-sensitive hash of a request pool (every sample field), to check
/// that repeated set-ups generate the same inputs.
pub fn pool_hash(pool: &[ScoreRequest]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x100000001b3);
    for r in pool {
        eat(r.samples.len() as u64);
        for s in &r.samples {
            s.cat.iter().for_each(|&v| eat(v as u64));
            eat(context_key(s));
        }
    }
    h
}

/// Reference scores: every request scored alone, on
/// [`OPEN_LOOP_THREADS`] thread. Scores do not depend on the thread count
/// (DESIGN.md §10), and one thread keeps the vCPU wake-ups described in the
/// module docs out of `setup_s`.
pub fn reference_scores(
    engine: &ScoreEngine<'_>,
    pool: &[ScoreRequest],
) -> MissResult<Vec<Vec<f32>>> {
    miss_parallel::with_threads(OPEN_LOOP_THREADS, || {
        pool.iter()
            .map(|r| engine.score_queue(std::slice::from_ref(r)))
            .collect()
    })
}

/// Compares served scores with the reference, bit for bit. A request
/// counts as failed when its queue returned an error (`BadRequest`) or any
/// of its scores differs.
pub struct Checker<'a> {
    reference: &'a [Vec<f32>],
    /// Alter the next score checked (smoke mode: proves the check bites).
    pub corrupt_next: bool,
    pub attempted: u64,
    pub bad_requests: u64,
    pub mismatches: u64,
}

impl<'a> Checker<'a> {
    pub fn new(reference: &'a [Vec<f32>]) -> Checker<'a> {
        Checker {
            reference,
            corrupt_next: false,
            attempted: 0,
            bad_requests: 0,
            mismatches: 0,
        }
    }

    pub fn failed(&self) -> u64 {
        self.bad_requests + self.mismatches
    }

    /// Check the scores of `pool[first..first + queue.len()]`.
    pub fn check(&mut self, first: usize, queue: &[ScoreRequest], scored: MissResult<Vec<f32>>) {
        self.attempted += queue.len() as u64;
        let mut scores = match scored {
            Ok(s) => s,
            Err(_) => {
                self.bad_requests += queue.len() as u64;
                return;
            }
        };
        if self.corrupt_next {
            if let Some(x) = scores.first_mut() {
                *x = f32::from_bits(x.to_bits() ^ 1);
            }
            self.corrupt_next = false;
        }
        let mut at = 0usize;
        for (k, req) in queue.iter().enumerate() {
            let n = req.num_candidates();
            let got = scores.get(at..at + n);
            let want = self.reference.get(first + k);
            let same = match (got, want) {
                (Some(g), Some(w)) => {
                    g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
                }
                _ => false,
            };
            if !same {
                self.mismatches += 1;
            }
            at += n;
        }
        if at != scores.len() {
            self.mismatches += 1;
        }
    }
}

/// Whole pool queued at once, with the pool at `threads` threads:
/// candidates scored per second of host time.
pub fn backlog_once(
    t: &mut Tracer,
    engine: &ScoreEngine<'_>,
    pool: &[ScoreRequest],
    threads: usize,
    check: &mut Checker<'_>,
) -> f64 {
    let cands: usize = pool.iter().map(ScoreRequest::num_candidates).sum();
    let (scored, ns) = t.time("serve.backlog_queue", |_| {
        miss_parallel::with_threads(threads, || engine.score_queue(pool))
    });
    check.check(0, pool, scored);
    cands as f64 / (ns.max(1) as f64 / 1e9)
}

/// One open-loop phase over a slice of the pool at one offered rate.
#[derive(Default)]
pub struct Phase {
    /// Per request, due to score, on the virtual timeline.
    pub latency_ms: Vec<f64>,
    /// Per request, due to the start of its round.
    pub wait_ms: Vec<f64>,
    /// Per round: `score_queue` host time.
    pub service_ns: Vec<u64>,
    /// Per round (traced only): `form_batches` host time.
    pub form_ns: Vec<u64>,
    /// Per formed batch (traced only): candidates.
    pub batch_cands: Vec<usize>,
}

impl Phase {
    pub fn p50(&self) -> f64 {
        band_quantile(&self.latency_ms, 0.5, P50_BAND)
    }

    pub fn p99(&self) -> f64 {
        band_quantile(&self.latency_ms, 0.99, P99_BAND)
    }

    /// The p99 the latency limit applies to: the larger of the phase's p99
    /// and its last quarter's, since a growing backlog shows there first.
    pub fn limit_p99(&self) -> f64 {
        let tail = &self.latency_ms[self.latency_ms.len() * 3 / 4..];
        self.p99().max(band_quantile(tail, 0.99, P99_BAND))
    }
}

/// Serve `pool[range]` open loop at `rate` requests per second, with the
/// pool at `threads` threads.
pub fn open_loop(
    t: &mut Tracer,
    engine: &ScoreEngine<'_>,
    pool: &[ScoreRequest],
    range: Range<usize>,
    rate: f64,
    threads: usize,
    check: &mut Checker<'_>,
) -> Phase {
    let base = range.start.min(pool.len());
    let reqs = &pool[base..range.end.clamp(base, pool.len())];
    let n = reqs.len();
    let due = |i: usize| (i as f64 * 1e9 / rate) as u64;
    let mut phase = Phase::default();
    let (mut vt, mut next) = (0u64, 0usize);
    while next < n {
        vt = vt.max(due(next));
        let mut end = next + 1;
        while end < n && due(end) <= vt {
            end += 1;
        }
        let queue = &reqs[next..end];
        let traced = t.recording();
        let ((scored, service), _) = t.time("serve.round", |t| {
            if traced {
                let (batches, form) = t.time("serve.form_batches", |_| engine.form_batches(queue));
                phase.form_ns.push(form);
                for &(r0, r1) in &batches {
                    let c = queue
                        .get(r0..r1)
                        .map_or(0, |b| b.iter().map(ScoreRequest::num_candidates).sum());
                    phase.batch_cands.push(c);
                }
            }
            t.time("serve.score_queue", |_| {
                miss_parallel::with_threads(threads, || engine.score_queue(queue))
            })
        });
        check.check(base + next, queue, scored);
        phase.service_ns.push(service);
        let done = vt + service;
        for i in next..end {
            let d = due(i);
            phase.latency_ms.push((done - d) as f64 / 1e6);
            phase.wait_ms.push((vt - d) as f64 / 1e6);
            let id = Some((base + i) as u64);
            if let Some(root) = t.record_virtual("serve.request", d, done, None, id) {
                t.record_virtual("serve.queue_wait", d, vt, Some(root), id);
                t.record_virtual("serve.in_service", vt, done, Some(root), id);
            }
        }
        vt = done;
        next = end;
    }
    phase
}

/// Offered rates of the highest-rate search, as shares of the backlog
/// capacity at [`OPEN_LOOP_THREADS`]: a geometric grid, 15% apart. The
/// limit was crossed at 0.8–1.0 of it; at 0.5 the p99 was about 2 ms. The
/// top reaches 1.76 because the capacity comes from the warm-up, which may
/// run while the host is slow (see [`RateGrid::figures`]).
const GRID: [f64; 10] = [0.5, 0.575, 0.66, 0.76, 0.875, 1.0, 1.155, 1.33, 1.53, 1.76];
/// Quantile over a rate's trials that the search works on (see
/// [`RateGrid::figures`]).
const TRIAL_QUANTILE: f64 = 0.25;

/// The highest-rate search: every measured round serves the same pool slice
/// once at each grid rate and records the phase's [`Phase::limit_p99`].
/// Trials of one rate are spread over the whole run, so a spell of other
/// tenants' load spoils a few trials of every rate instead of every trial
/// of a few rates.
pub struct RateGrid {
    pub rates: Vec<f64>,
    /// Per rate, one p99 (ms) per trial.
    pub p99s: Vec<Vec<f64>>,
}

impl RateGrid {
    /// Grid around `capacity`, the requests per second the backlog phase
    /// sustained at [`OPEN_LOOP_THREADS`].
    pub fn new(capacity: f64) -> RateGrid {
        RateGrid {
            rates: GRID.iter().map(|f| f * capacity).collect(),
            p99s: vec![Vec::new(); GRID.len()],
        }
    }

    /// One trial at the `k`-th rate, serving `pool[range]`.
    pub fn trial(
        &mut self,
        k: usize,
        t: &mut Tracer,
        engine: &ScoreEngine<'_>,
        pool: &[ScoreRequest],
        range: Range<usize>,
        check: &mut Checker<'_>,
    ) {
        if let (Some(&rate), Some(p99s)) = (self.rates.get(k), self.p99s.get_mut(k)) {
            let phase = open_loop(t, engine, pool, range, rate, OPEN_LOOP_THREADS, check);
            p99s.push(phase.limit_p99());
        }
    }

    /// Per rate, the first quartile of its trials' p99s. The shared host
    /// drifts in speed by up to 1.7x over seconds to minutes; the lower
    /// quartile keeps the fast speed whenever it covers a quarter of the
    /// trials, where a median moves with the share of slow time.
    pub fn figures(&self) -> Vec<f64> {
        self.p99s
            .iter()
            .map(|v| quantile(v, TRIAL_QUANTILE))
            .collect()
    }

    /// Highest rate that meets [`LIMIT_MS`] (see [`crossing`]).
    pub fn max_rate(&self) -> Option<f64> {
        crossing(&self.rates, &self.figures(), LIMIT_MS)
    }
}

/// Where a p99-versus-rate curve crosses `limit`, from below: between the
/// lowest rate over the limit and the rate before it, interpolated linearly
/// in log rate against log p99. The highest rate when none is over the
/// limit; `None` when the lowest already is (no rate passed).
pub fn crossing(rates: &[f64], p99: &[f64], limit: f64) -> Option<f64> {
    let k = p99.iter().position(|&p| p > limit).unwrap_or(rates.len());
    let (ra, pa) = (*rates.get(k.checked_sub(1)?)?, *p99.get(k - 1)?);
    let (Some(&rb), Some(&pb)) = (rates.get(k), p99.get(k)) else {
        return Some(ra);
    };
    let pa = pa.max(f64::MIN_POSITIVE);
    let x = (limit / pa).ln() / (pb / pa).ln();
    Some(ra * (rb / ra).powf(x))
}

/// Traced only: assemble and score each formed batch of the whole pool one
/// after another, timing `Batch::from_samples` and `FrozenModel::forward`
/// separately. Returns (assembly ns per batch, forward ns per batch,
/// candidates per batch, batches whose scores differ from the reference).
pub fn replay_batches(
    t: &mut Tracer,
    engine: &ScoreEngine<'_>,
    frozen: &FrozenModel,
    pool: &[ScoreRequest],
    reference: &[Vec<f32>],
) -> (Vec<u64>, Vec<u64>, Vec<usize>, u64) {
    let (mut assemble, mut forward, mut cands, mut bad) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64);
    let schema = frozen.schema();
    for (r0, r1) in engine.form_batches(pool) {
        let Some(reqs) = pool.get(r0..r1) else {
            continue;
        };
        let refs: Vec<&Sample> = reqs.iter().flat_map(|r| r.samples.iter()).collect();
        let (batch, a) = t.time("data.serve_batch", |_| Batch::from_samples(&refs, schema));
        let (logits, f) = t.time("serve.forward", |_| frozen.forward(&batch));
        assemble.push(a);
        forward.push(f);
        cands.push(refs.len());
        let mut scores = Vec::with_capacity(refs.len());
        if let Ok(l) = logits {
            miss_util::sigmoid_extend(l.as_slice(), &mut scores);
        }
        let want = reference.get(r0..r1).map(|w| w.concat());
        if want.is_none_or(|w| {
            w.len() != scores.len()
                || w.iter()
                    .zip(&scores)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
        }) {
            bad += 1;
        }
    }
    (assemble, forward, cands, bad)
}

#[cfg(test)]
mod tests {
    use super::crossing;

    #[test]
    fn crossing_reports_only_a_bracketed_rate() {
        let rates = [100.0, 200.0, 400.0, 800.0];
        // Nothing meets the limit: no rate.
        assert_eq!(crossing(&rates, &[30.0, 40.0, 50.0, 60.0], 20.0), None);
        // Everything does: the highest rate tried.
        assert_eq!(crossing(&rates, &[1.0, 2.0, 3.0, 4.0], 20.0), Some(800.0));
        // 10 ms at 200 req/s, 40 ms at 400: 20 ms lies halfway in log p99,
        // so halfway in log rate.
        let mid = crossing(&rates, &[5.0, 10.0, 40.0, 80.0], 20.0).expect("bracketed");
        assert!((mid - 200.0 * 2f64.sqrt()).abs() < 1e-9, "mid {mid}");
        // The first rate over the limit decides, whatever comes after it.
        let first = crossing(&rates, &[5.0, 40.0, 10.0, 80.0], 20.0).expect("bracketed");
        assert!(first > 100.0 && first < 200.0, "first {first}");
        // Exactly at the limit passes.
        assert_eq!(
            crossing(&rates, &[5.0, 20.0, 40.0, 80.0], 20.0),
            Some(200.0)
        );
    }
}
