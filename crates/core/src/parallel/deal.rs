//! The one dealer: how a wave of the execution core — a parallel batch
//! over the whole grid, or one wave of a scatter over its shards — is
//! spread over the pool (DESIGN.md §9, *The dealer*).

use crate::batched::{descend, with_lanes, with_pooled_scratch, BandRun, Job};
use crate::descent::{seed_root, warm_up, Clock, PoolMeter, Pooled, Scored};
use crate::engine::Region;
use crate::error::CoreError;
use crate::parallel::pool::{SharedBound, WorkerPool};
use crate::resilient::{ExecOptions, WallDeadline};
use crate::source::CellSource;

/// A band dealt to several workers is warmed up until it holds
/// `workers * FRONTIER_FANOUT` regions per query, so the deal gives every
/// worker several independent regions.
const FRONTIER_FANOUT: usize = 4;

/// One band's run in one wave: the lanes of every query over the band,
/// and the I/O the wave cost on the band's own clocks.
pub(crate) struct Attempt {
    pub(crate) out: Result<BandRun, CoreError>,
    pub(crate) pages: u64,
    pub(crate) ticks: u64,
}

/// One band's share of one pool task: the band's position in the wave,
/// and the `(query, region)` pairs dealt to the task there (`None`: the
/// whole band, from its root).
type Deal = (usize, Option<Vec<(usize, Region)>>);

#[cfg(test)]
thread_local! {
    /// The pool tasks of every wave this thread dealt, in order.
    pub(crate) static WAVE_TASKS: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs one wave: the bands of `job` over `pool`, each band under its own
/// [`Pooled`] budget (its own meter, its own clocks), every worker pruning
/// against its [`Scored`] floor raised to the per-query `bounds`. Returns
/// one [`Attempt`] per band, in `job` order.
///
/// The wave decides the deal. With B bands on T threads, band b gets
/// ⌊T/B⌋ workers, one more when b < T mod B. A band with one worker or
/// none (every band once B ≥ T) is dealt whole, to descend from its root.
/// A band with more is warmed up ([`warm_up`]) until it holds `workers ×
/// FRONTIER_FANOUT × Q` regions, and those are dealt round-robin, best
/// first, so every worker starts with a comparable spread of upper bounds;
/// a stop tripped during the warm-up surrenders them instead. The deals,
/// in band order, go round-robin to T pool tasks, and each task descends
/// its deals as one descent. A band's outcome sums over the workers that
/// held its regions; its error is the lowest-indexed worker's.
pub(crate) fn deal<S: CellSource + Sync>(
    job: &Job<'_, S>,
    opts: ExecOptions<'_>,
    deadline: &WallDeadline,
    bounds: &[SharedBound],
    pool: &WorkerPool,
) -> Vec<Attempt> {
    let (bands, threads) = (job.bands.len(), pool.threads());
    let clocks: Vec<(u64, u64)> = (job.bands.iter())
        .map(|band| (band.source().pages_read(), band.source().ticks_elapsed()))
        .collect();
    let meters: Vec<PoolMeter> = job.bands.iter().map(|_| PoolMeter::default()).collect();
    let pressures: Vec<Pooled<'_>> = (job.bands.iter().zip(&meters))
        .map(|(band, meter)| Pooled::new(Clock::starting(opts, deadline, band.source()), meter))
        .collect();
    let mut runs: Vec<Option<Result<BandRun, CoreError>>> = (0..bands).map(|_| None).collect();
    let mut deals: Vec<Deal> = Vec::new();
    for (b, run) in runs.iter_mut().enumerate() {
        let workers = threads / bands + usize::from(b < threads % bands);
        if workers <= 1 {
            deals.push((b, None));
            continue;
        }
        let target = workers * FRONTIER_FANOUT * job.models.len();
        let (held, mut warm) = with_pooled_scratch(|scratch| {
            with_lanes(
                &job.over([b]),
                |_| pressures[b],
                scratch,
                |envs, lanes, selectors| {
                    let env = &mut envs[0];
                    for lane in lanes.iter_mut() {
                        seed_root(env, lane)?;
                    }
                    Ok(warm_up(env, lanes, target, &mut selectors[0]))
                },
            )
        });
        let (outs, tally) = warm.pop().expect("one band");
        *run = Some(held.map(|held| {
            let n = workers.min(held.len());
            let mut seeds: Vec<Vec<(usize, Region)>> = vec![Vec::new(); n];
            for (i, entry) in held.into_iter().enumerate() {
                seeds[i % n].push(entry);
            }
            deals.extend(seeds.into_iter().map(|seeds| (b, Some(seeds))));
            (outs, tally)
        }));
    }
    let mut tasks: Vec<Vec<Deal>> = (0..threads.min(deals.len())).map(|_| Vec::new()).collect();
    for (i, deal) in deals.into_iter().enumerate() {
        tasks[i % threads].push(deal);
    }
    #[cfg(test)]
    WAVE_TASKS.with(|waves| waves.borrow_mut().push(tasks.len()));
    let pressures = &pressures[..];
    let worker_runs = pool.run(
        tasks
            .into_iter()
            .map(|task| {
                move |_w: usize| {
                    let own = job.over(task.iter().map(|&(b, _)| b));
                    let mut floor = Scored::new(job.k, bounds);
                    let got = with_pooled_scratch(|scratch| {
                        descend(
                            &own,
                            |j| pressures[task[j].0],
                            |j| task[j].1.as_deref(),
                            &mut floor,
                            scratch,
                        )
                    });
                    let bands = task.into_iter().map(|(b, _)| b);
                    bands.zip(got).collect::<Vec<_>>()
                }
            })
            .collect(),
    );
    for (b, got) in worker_runs.into_iter().flatten() {
        runs[b] = Some(match (runs[b].take(), got) {
            (None, got) => got,
            (Some(Err(e)), _) | (Some(Ok(_)), Err(e)) => Err(e),
            (Some(Ok((mut outs, mut tally))), Ok((lanes, more))) => {
                tally += more;
                for (out, lane) in outs.iter_mut().zip(lanes) {
                    out.absorb(lane);
                    out.merge_items(job.k);
                }
                Ok((outs, tally))
            }
        });
    }
    (runs.into_iter().zip(&job.bands).zip(clocks))
        .map(|((run, band), (pages, ticks))| Attempt {
            out: run.expect("every band ran"),
            pages: band.source().pages_read().saturating_sub(pages),
            ticks: band.source().ticks_elapsed().saturating_sub(ticks),
        })
        .collect()
}
