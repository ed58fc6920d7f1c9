//! Deterministic sharded execution of aggregate batches.
//!
//! The factorized aggregate batch over `dom(Q)` is embarrassingly
//! parallel: every fact row (or row group) contributes an independent
//! partial sum per aggregate, and partial sums merge by addition. This
//! module provides the scaffolding the physical executors use to shard
//! their scans across threads:
//!
//! * [`ExecConfig`] — the execution configuration: thread count and
//!   chunk granularity, plumbed from the pipeline / bench layer down to
//!   every executor.
//! * [`run_chunked`] — splits `0..n` work items into fixed-size chunks,
//!   evaluates each chunk independently (on scoped threads when
//!   `threads > 1`), and merges the per-chunk partials **in ascending
//!   chunk order** on the calling thread.
//!
//! # Determinism guarantee
//!
//! The chunk layout is a pure function of the item count and
//! [`ExecConfig::chunk_rows`] — it never depends on the thread count or
//! on scheduling. Partials are merged in ascending chunk order, so for a
//! fixed `chunk_rows` the result is **bit-identical** across
//! `threads = 1, 2, …, k` and across repeated runs. Changing
//! `chunk_rows` changes the floating-point association order of the
//! reduction, which may perturb results within the usual accumulation
//! tolerance (~1e-9 relative on the covar workloads); it never changes
//! the real-arithmetic value.
//!
//! The sequential path is *not* a separate code fork: `threads = 1` runs
//! the same chunked loop on the calling thread, so the differential
//! tests compare the identical reduction at every parallelism level.
//!
//! The [`crate::exec`] executor tree's `AggregateNode` folds partials
//! under exactly this discipline, which is how bit-identity across
//! thread counts carries over to every execution path built on the tree
//! (resident, prepared, delta, streamed) by construction rather than by
//! per-path argument.
//!
//! # Picking `chunk_rows`
//!
//! Chunks are the unit of load balancing (threads pull the next unclaimed
//! chunk from a shared counter). Too large and a straggler chunk idles
//! the other threads — worse, `workers = min(threads, chunks)`, so too
//! few chunks silently caps the parallelism. Too small and per-chunk
//! overhead (a partial-result vector allocation plus one atomic
//! increment) dominates. The sharded default [`DEFAULT_CHUNK_ROWS`]
//! (2 Ki rows) gives the 50 k-row bench workload ~25 chunks — ≥ 3 per
//! thread at 8 threads — while per-chunk work (thousands of
//! row·aggregate updates) still dwarfs the bookkeeping. A plain
//! [`ExecConfig::default`] instead runs one chunk (exact pre-sharding
//! results). Prefer tuning `threads` and leaving `chunk_rows` alone:
//! both defaults are deterministic across machines.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default number of rows (work items) per chunk for *sharded* configs
/// ([`ExecConfig::with_threads`], or `IFAQ_THREADS` set). Plain
/// [`ExecConfig::default`] instead runs the whole scan as one chunk, so
/// callers on the global default reproduce the exact pre-sharding
/// accumulation order when no environment override is present.
pub const DEFAULT_CHUNK_ROWS: usize = 2_048;

/// Execution configuration for the physical executors: how many threads
/// shard the scan and how many rows each chunk holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads. `1` runs the chunked loop on the
    /// calling thread (no spawning) — the same code path, so results are
    /// identical to any other thread count at the same `chunk_rows`.
    pub threads: NonZeroUsize,
    /// Rows per chunk (≥ 1). Determines the reduction's association
    /// order; see the module docs for the determinism guarantee.
    pub chunk_rows: usize,
}

impl Default for ExecConfig {
    /// One thread, one chunk: the faithful sequential execution — callers
    /// on the global default produce bit-identical results to the
    /// pre-sharding accumulators.
    fn default() -> Self {
        ExecConfig {
            threads: NonZeroUsize::new(1).unwrap(),
            chunk_rows: usize::MAX,
        }
    }
}

impl ExecConfig {
    /// Single-threaded, single-chunk configuration (alias of `default`).
    pub fn serial() -> Self {
        ExecConfig::default()
    }

    /// Configuration with `threads` workers and [`DEFAULT_CHUNK_ROWS`]
    /// (the same chunk layout for every `threads` value, so results are
    /// directly comparable across thread counts). `threads = 0` is
    /// clamped to 1.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: NonZeroUsize::new(threads.max(1)).unwrap(),
            chunk_rows: DEFAULT_CHUNK_ROWS,
        }
    }

    /// Returns a copy with the given chunk size (`0` is clamped to 1).
    pub fn with_chunk_rows(self, chunk_rows: usize) -> Self {
        ExecConfig {
            chunk_rows: chunk_rows.max(1),
            ..self
        }
    }

    /// Reads the configuration from the environment: `IFAQ_THREADS`
    /// (`auto` or `0` = available parallelism) and `IFAQ_CHUNK_ROWS`.
    /// With neither set this is [`ExecConfig::default`] — sequential,
    /// single chunk. Setting `IFAQ_THREADS` switches to the chunked
    /// layout ([`DEFAULT_CHUNK_ROWS`] unless `IFAQ_CHUNK_ROWS` says
    /// otherwise); unparsable values warn on stderr and fall back.
    pub fn from_env() -> Self {
        let mut cfg = match std::env::var("IFAQ_THREADS") {
            Ok(s) if s.trim().eq_ignore_ascii_case("auto") || s.trim() == "0" => {
                ExecConfig::with_threads(
                    std::thread::available_parallelism()
                        .map(NonZeroUsize::get)
                        .unwrap_or(1),
                )
            }
            Ok(s) => match s.trim().parse() {
                Ok(n) => ExecConfig::with_threads(n),
                Err(_) => {
                    eprintln!("warning: IFAQ_THREADS={s:?} is not a thread count; running serial");
                    ExecConfig::default()
                }
            },
            Err(_) => ExecConfig::default(),
        };
        if let Ok(s) = std::env::var("IFAQ_CHUNK_ROWS") {
            match s.trim().parse::<usize>() {
                Ok(c) if c > 0 => cfg = cfg.with_chunk_rows(c),
                _ => eprintln!(
                    "warning: IFAQ_CHUNK_ROWS={s:?} is not a positive row count; keeping {}",
                    cfg.chunk_rows
                ),
            }
        }
        cfg
    }

    /// The process-wide configuration: [`ExecConfig::from_env`] read once
    /// on first use. Callers without a config of their own use this,
    /// so `IFAQ_THREADS=4 cargo test` drives every existing test
    /// through the sharded path — safe precisely because results are
    /// thread-count invariant.
    pub fn global() -> &'static ExecConfig {
        static GLOBAL: OnceLock<ExecConfig> = OnceLock::new();
        GLOBAL.get_or_init(ExecConfig::from_env)
    }

    /// Number of chunks `n` work items split into (0 for `n = 0`).
    pub fn num_chunks(&self, n: usize) -> usize {
        n.div_ceil(self.chunk_rows.max(1))
    }

    /// The half-open item range of chunk `c`.
    pub fn chunk_range(&self, n: usize, c: usize) -> Range<usize> {
        let w = self.chunk_rows.max(1);
        (c * w)..((c + 1) * w).min(n)
    }
}

/// Evaluates `shard` over every chunk of `0..n` and folds the partials
/// with `merge` **in ascending chunk order**, starting from `zero`.
///
/// With `threads = 1` (or a single chunk) everything runs on the calling
/// thread; otherwise scoped threads pull chunk indices from a shared
/// counter, park their partials in per-chunk slots, and the caller folds
/// the slots in order after the scope joins. Either way the reduction
/// order — and therefore the floating-point result — is a function of
/// the chunk layout alone.
pub fn run_chunked<A, P, F, M>(cfg: &ExecConfig, n: usize, zero: A, shard: F, mut merge: M) -> A
where
    P: Send + Sync,
    F: Fn(Range<usize>) -> P + Sync,
    M: FnMut(&mut A, P),
{
    let chunks = cfg.num_chunks(n);
    let mut acc = zero;
    if chunks == 0 {
        return acc;
    }
    let workers = cfg.threads.get().min(chunks);
    if workers <= 1 {
        for c in 0..chunks {
            let p = shard(cfg.chunk_range(n, c));
            merge(&mut acc, p);
        }
        return acc;
    }
    let next = AtomicUsize::new(0);
    // Write-once result slots: each chunk index is claimed by exactly one
    // worker, and the slots are only read after the scope joins.
    let slots: Vec<OnceLock<P>> = (0..chunks).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    break;
                }
                let p = shard(cfg.chunk_range(n, c));
                assert!(slots[c].set(p).is_ok(), "chunk {c} computed twice");
            });
        }
    });
    for slot in slots {
        let p = slot.into_inner().expect("every chunk computed");
        merge(&mut acc, p);
    }
    acc
}

/// [`run_chunked`] specialized to the executors' shape: per-chunk partial
/// sum vectors of `width` aggregates, merged element-wise in chunk order.
pub fn run_chunked_sums<F>(cfg: &ExecConfig, n: usize, width: usize, shard: F) -> Vec<f64>
where
    F: Fn(Range<usize>) -> Vec<f64> + Sync,
{
    run_chunked(cfg, n, vec![0.0; width], shard, |acc, p| {
        debug_assert_eq!(acc.len(), p.len());
        for (a, x) in acc.iter_mut().zip(p) {
            *a += x;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_shard(data: &[f64]) -> impl Fn(Range<usize>) -> Vec<f64> + Sync + '_ {
        |r: Range<usize>| vec![data[r].iter().sum()]
    }

    #[test]
    fn chunk_layout_is_thread_independent() {
        let a = ExecConfig::with_threads(1).with_chunk_rows(7);
        let b = ExecConfig::with_threads(8).with_chunk_rows(7);
        for n in [0, 1, 6, 7, 8, 20, 100] {
            assert_eq!(a.num_chunks(n), b.num_chunks(n));
            for c in 0..a.num_chunks(n) {
                assert_eq!(a.chunk_range(n, c), b.chunk_range(n, c));
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let cfg = ExecConfig::serial().with_chunk_rows(3);
        let n = 10;
        let mut seen = Vec::new();
        for c in 0..cfg.num_chunks(n) {
            seen.extend(cfg.chunk_range(n, c));
        }
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.1 + 0.7).collect();
        let base = run_chunked_sums(
            &ExecConfig::with_threads(1).with_chunk_rows(64),
            data.len(),
            1,
            sum_shard(&data),
        );
        for threads in [2, 3, 8, 33] {
            let got = run_chunked_sums(
                &ExecConfig::with_threads(threads).with_chunk_rows(64),
                data.len(),
                1,
                sum_shard(&data),
            );
            // Bit-identical: same chunk layout, same merge order.
            assert_eq!(base, got, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_yields_zero() {
        for threads in [1, 4] {
            let cfg = ExecConfig::with_threads(threads);
            let out = run_chunked_sums(&cfg, 0, 3, |_| unreachable!("no chunks"));
            assert_eq!(out, vec![0.0; 3]);
        }
    }

    #[test]
    fn fewer_rows_than_threads() {
        let data = [1.0, 2.0, 3.0];
        let cfg = ExecConfig::with_threads(8).with_chunk_rows(1);
        let out = run_chunked_sums(&cfg, data.len(), 1, sum_shard(&data));
        assert_eq!(out, vec![6.0]);
    }

    #[test]
    fn merge_order_is_chunk_order() {
        // Collect chunk start indices through the merge; they must arrive
        // ascending regardless of thread interleaving.
        let cfg = ExecConfig::with_threads(4).with_chunk_rows(5);
        let starts = run_chunked(
            &cfg,
            50,
            Vec::new(),
            |r| vec![r.start],
            |acc: &mut Vec<usize>, p| acc.extend(p),
        );
        assert_eq!(starts, (0..50).step_by(5).collect::<Vec<_>>());
    }

    #[test]
    fn config_builders_clamp() {
        assert_eq!(ExecConfig::with_threads(0).threads.get(), 1);
        assert_eq!(ExecConfig::serial().with_chunk_rows(0).chunk_rows, 1);
        // Default = sequential single chunk; sharded builders = the fixed
        // chunked layout, identical for every thread count.
        assert_eq!(ExecConfig::default().chunk_rows, usize::MAX);
        for t in [1, 2, 8] {
            assert_eq!(ExecConfig::with_threads(t).chunk_rows, DEFAULT_CHUNK_ROWS);
        }
    }

    #[test]
    fn default_config_is_one_chunk() {
        let cfg = ExecConfig::default();
        for n in [1, 5, 1_000_000] {
            assert_eq!(cfg.num_chunks(n), 1);
            assert_eq!(cfg.chunk_range(n, 0), 0..n);
        }
        assert_eq!(cfg.num_chunks(0), 0);
    }
}
