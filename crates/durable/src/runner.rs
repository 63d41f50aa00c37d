//! The supervised unit runner shared by both apertures: the passive
//! study's months, the scan campaign's sweep dates, the SSL-Pulse
//! surveys and the unit files of a checkpoint-store load
//! ([`load_units`](crate::load_units)).
//!
//! [`run_units`] hands unit indices to workers from one atomic
//! counter. A worker runs each unit it claims — the caller's supervised
//! fold, then its checkpoint write — and commits the result into a
//! state of its own, which persists across the units that worker runs
//! (the passive study keeps its worker's parse cache there). The caller
//! puts the panic boundary inside the unit with [`isolate`], around
//! work a panic may discard (a whole month or date, then one flow or
//! host of its replay). A panic anywhere else kills its worker: the
//! units that worker committed are lost with its state, and
//! [`Committed`] reports what the surviving workers kept.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, PoisonError};

use tlscope_obs::Progress;

use crate::StoreError;

// The default panic hook prints every caught panic, which floods
// output once panics are expected and supervised. The hook below
// forwards to the previous hook unless the current thread is inside
// `isolate`.
thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Run `f` behind a panic boundary: `Some` of its result, or `None`
/// when it panicked. The panic is not printed: the calling thread's
/// panics are quiet while `f` runs, then as they were before.
///
/// The caller discards whatever `f` was building when it panicked,
/// which is why unwind safety is asserted here.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Option<T> {
    install_quiet_panic_hook();
    let was = QUIET_PANICS.with(|q| q.replace(true));
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    QUIET_PANICS.with(|q| q.set(was));
    out
}

/// What the surviving workers of one [`run_units`] call committed.
#[derive(Debug)]
pub struct Committed<A> {
    /// Each surviving worker's state.
    pub parts: Vec<A>,
    /// Units the states in `parts` hold. Every other unit was lost
    /// with its worker.
    pub committed: usize,
    /// Workers that died outside [`isolate`].
    pub workers_lost: usize,
}

/// Run units `0..units` on up to `workers` threads, one code path at
/// every worker count.
///
/// Each worker starts from `A::default()` and claims unit indices from
/// an atomic counter. `work(state, i)` runs unit `i` and commits its
/// result into the worker's own `state`; a unit counts as committed
/// when `work` returns `Ok`. After the first [`StoreError`] no worker
/// claims another unit, and the error is returned once every worker
/// has joined. Zero units spawn no thread.
///
/// `progress` ticks on its own thread while workers run, when it is
/// enabled. The units it shows as done are those it counts beyond
/// `units` (done before this run, such as units loaded from a store)
/// plus every unit committed since; `items` reads its throughput
/// counter.
pub fn run_units<A: Default + Send>(
    units: usize,
    workers: usize,
    progress: &Progress,
    items: impl Fn() -> u64 + Sync,
    work: impl Fn(&mut A, usize) -> Result<(), StoreError> + Sync,
) -> Result<Committed<A>, StoreError> {
    let mut ran = Committed {
        parts: Vec::new(),
        committed: 0,
        workers_lost: 0,
    };
    if units == 0 {
        return Ok(ran);
    }
    let next = AtomicUsize::new(0);
    let done = AtomicU64::new(progress.total_units().saturating_sub(units as u64));
    let failed: Mutex<Option<StoreError>> = Mutex::new(None);
    // Every update is one `get_or_insert`, so even a poisoned lock
    // holds a valid value.
    let failure = || failed.lock().unwrap_or_else(PoisonError::into_inner);
    let worker = || {
        let mut state = A::default();
        let mut committed = 0;
        while failure().is_none() {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= units {
                break;
            }
            if let Err(e) = work(&mut state, i) {
                failure().get_or_insert(e);
                break;
            }
            committed += 1;
            done.fetch_add(1, Ordering::Relaxed);
        }
        (state, committed)
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let ticker = progress.is_enabled().then(|| {
            scope.spawn(|| progress.run_ticker(&stop, || (done.load(Ordering::Relaxed), items())))
        });
        let handles: Vec<_> = (0..workers.clamp(1, units))
            .map(|_| scope.spawn(worker))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((state, committed)) => {
                    ran.parts.push(state);
                    ran.committed += committed;
                }
                Err(_) => ran.workers_lost += 1,
            }
        }
        stop.store(true, Ordering::Release);
        if let Some(ticker) = ticker {
            ticker.thread().unpark();
        }
    });
    match failed.into_inner().unwrap_or_else(PoisonError::into_inner) {
        Some(e) => Err(e),
        None => Ok(ran),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::PathBuf;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn heartbeat(units: usize) -> Progress {
        Progress::from_env("runner-test", units as u64, "units", "items")
    }

    /// Run `units` units whose result is `i * i`, committing
    /// `(index, result)` pairs.
    fn squares(units: usize, workers: usize) -> Result<Committed<Vec<(usize, usize)>>, StoreError> {
        run_units(
            units,
            workers,
            &heartbeat(units),
            || 0,
            |acc: &mut Vec<(usize, usize)>, i| {
                acc.push((i, i * i));
                Ok(())
            },
        )
    }

    #[test]
    fn results_come_back_in_index_order() {
        for workers in 1..=8 {
            let ran = squares(50, workers).unwrap();
            assert_eq!(ran.committed, 50);
            assert_eq!(ran.workers_lost, 0);
            let mut slots = vec![None; 50];
            for (i, result) in ran.parts.into_iter().flatten() {
                assert!(
                    slots[i].replace(result).is_none(),
                    "unit {i} committed twice"
                );
            }
            let expected: Vec<_> = (0..50).map(|i| Some(i * i)).collect();
            assert_eq!(slots, expected, "workers = {workers}");
        }
    }

    #[test]
    fn zero_units_spawn_no_thread() {
        let ran = run_units(
            0,
            8,
            &heartbeat(0),
            || 0,
            |_: &mut (), _| unreachable!("no unit to run"),
        )
        .unwrap();
        // Every worker that runs leaves an accumulator or a loss.
        assert!(ran.parts.is_empty());
        assert_eq!((ran.committed, ran.workers_lost), (0, 0));
        // Nor does the runner spawn idle workers past the unit count.
        assert_eq!(squares(3, 8).unwrap().parts.len(), 3);
    }

    /// A unit that panics outside `isolate` kills its worker and no
    /// other; the units that worker committed are reported lost.
    #[test]
    fn a_panic_outside_isolate_kills_only_its_worker() {
        const POISON: usize = 17;
        for workers in [1, 2, 4, 8] {
            let ran_on: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
            let ran = run_units(
                40,
                workers,
                &heartbeat(40),
                || 0,
                |acc: &mut Vec<usize>, i| {
                    ran_on
                        .lock()
                        .unwrap()
                        .push((i, std::thread::current().id()));
                    if i == POISON {
                        // Keep the expected panic out of the test log.
                        QUIET_PANICS.with(|q| q.set(true));
                        panic!("unit {i} dies outside isolate");
                    }
                    acc.push(i);
                    Ok(())
                },
            )
            .unwrap();
            let ran_on = ran_on.into_inner().unwrap();
            let dead = ran_on.iter().find(|(i, _)| *i == POISON).unwrap().1;
            let lost: BTreeSet<usize> = ran_on
                .iter()
                .filter(|(_, t)| *t == dead)
                .map(|(i, _)| *i)
                .collect();
            let kept: BTreeSet<usize> = ran.parts.iter().flatten().copied().collect();
            assert_eq!(ran.workers_lost, 1, "workers = {workers}");
            assert_eq!(ran.parts.len(), workers - 1);
            assert_eq!(ran.committed, kept.len());
            assert!(kept.is_disjoint(&lost));
            if workers > 1 {
                // The survivors drain the queue.
                let all: BTreeSet<usize> = kept.union(&lost).copied().collect();
                assert_eq!(all, (0..40).collect(), "workers = {workers}");
            } else {
                assert!(kept.is_empty());
                assert_eq!(lost, (0..=POISON).collect());
            }
        }
    }

    #[test]
    fn the_first_store_error_stops_claiming_and_returns_after_the_join() {
        const FAILING: usize = 10;
        const UNITS: usize = 2_000;
        for workers in [1, 3, 8] {
            let started = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            let result = run_units(
                UNITS,
                workers,
                &heartbeat(UNITS),
                || 0,
                |_: &mut (), i| {
                    started.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(300));
                    finished.fetch_add(1, Ordering::SeqCst);
                    match i {
                        FAILING => Err(StoreError::Corrupt(PathBuf::from(format!("{i}.ckpt")))),
                        _ => Ok(()),
                    }
                },
            );
            let err = result.unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(p) if p == &PathBuf::from("10.ckpt")),
                "{err}"
            );
            // Every unit that started finished before the error came
            // back: the workers were joined.
            let (started, finished) = (started.into_inner(), finished.into_inner());
            assert_eq!(started, finished);
            if workers == 1 {
                assert_eq!(started, FAILING + 1);
            } else {
                // The other workers stop within a unit or two of the
                // error, far short of the queue.
                assert!(started < UNITS / 4, "workers = {workers}: {started} ran");
            }
        }
    }

    /// A worker's state persists across the units it runs: one worker's
    /// state sees every unit, and three workers' unit counts sum to the
    /// units run.
    #[test]
    fn a_workers_state_persists_across_its_units() {
        for workers in [1, 3] {
            let ran = run_units(
                30,
                workers,
                &heartbeat(30),
                || 0,
                |seen: &mut usize, _| {
                    *seen += 1;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(ran.parts.len(), workers);
            if workers == 1 {
                assert_eq!(ran.parts, [30]);
            }
            assert_eq!(ran.parts.iter().sum::<usize>(), 30);
            assert_eq!(ran.committed, 30);
        }
    }

    #[test]
    fn isolate_leaves_the_quiet_hook_as_it_found_it() {
        let quiet = || QUIET_PANICS.with(Cell::get);
        for before in [false, true] {
            QUIET_PANICS.with(|q| q.set(before));
            assert_eq!(isolate(|| 7), Some(7));
            assert_eq!(quiet(), before);
            assert_eq!(isolate(|| -> u8 { panic!("supervised") }), None);
            assert_eq!(quiet(), before);
            // A nested boundary hands the outer one its quiet thread
            // back.
            let outer = isolate(|| {
                let inner = isolate(|| -> u8 { panic!("inner") });
                (inner, quiet())
            });
            assert_eq!(outer, Some((None, true)));
            assert_eq!(quiet(), before);
        }
        QUIET_PANICS.with(|q| q.set(false));
    }
}
