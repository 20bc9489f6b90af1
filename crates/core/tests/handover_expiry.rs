//! The ledger handover racing the registry's lazy-deletion expiry heap:
//! a drained reservation leaves deadline-bound sentinel contributions
//! *and* a pending expiry-heap record behind; if the task is reseeded
//! back into a reservation before that deadline passes, the stale heap
//! record must not unregister (or alias) the new reservation when it
//! finally surfaces. The per-registration generation stamps are the
//! defense; these tests pin it under governor-style rapid mode flapping.

use rtcm_core::admission::{AdmissionController, Decision};
use rtcm_core::analysis::audit_controller;
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId, TaskSet};
use rtcm_core::time::{Duration, Time};

fn cfg(label: &str) -> ServiceConfig {
    label.parse().unwrap()
}

fn at(ms: u64) -> Time {
    Time::ZERO + Duration::from_millis(ms)
}

fn one_periodic() -> TaskSet {
    let t = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
        .subtask(Duration::from_millis(20), ProcessorId(0), [])
        .build()
        .unwrap();
    TaskSet::from_tasks([t]).unwrap()
}

/// Drain → reseed *before* the drained entry's deadline: the reseed
/// converts the sentinel entry in place (unregistering it early), and the
/// heap still holds a pending expiry record for it. When that record
/// surfaces past the deadline it must be discarded as stale — the live
/// reservation keeps its guarantee.
#[test]
fn reseed_survives_pending_expiry_of_the_drained_entry() {
    let tasks = one_periodic();
    let task = tasks.get(TaskId(0)).unwrap();
    let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();

    let decision = ac.handle_arrival(task, 0, at(0)).unwrap();
    assert!(matches!(decision, Decision::Accept { .. }));
    assert!(ac.is_reserved(TaskId(0)));
    let loaded = ac.ledger().utilizations();

    // Drain at t = 10 ms: reservation → sentinel entry expiring at 110 ms,
    // with a pending lazy-deletion heap record.
    let drain = ac.reconfigure(cfg("J_N_N"), at(10), &tasks).unwrap();
    assert_eq!(drain.reservations_drained, 1);
    assert!(!ac.is_reserved(TaskId(0)));
    assert_eq!(ac.current_entries(), 1);

    // Reseed at t = 20 ms — well before the drained deadline: the sentinel
    // entry is converted back into the reservation in place, leaving its
    // heap record orphaned.
    let reseed = ac.reconfigure(cfg("T_N_N"), at(20), &tasks).unwrap();
    assert_eq!(reseed.reservations_reseeded, 1);
    assert_eq!(reseed.reseeds_skipped, 0);
    assert!(ac.is_reserved(TaskId(0)));

    // t = 200 ms: the orphaned record pops. A generation mismatch must
    // discard it; the reservation (and its ledger contributions) survive.
    ac.expire(at(200));
    assert!(ac.is_reserved(TaskId(0)), "stale expiry must not evict the reseeded reservation");
    assert_eq!(ac.current_entries(), 1);
    assert_eq!(ac.ledger().utilizations(), loaded, "utilization carried through the race");

    let audit = audit_controller(&ac);
    assert!(audit.is_consistent(1e-9), "cached sums drifted {}", audit.max_cached_drift);

    // Later jobs still pass through on the surviving reservation.
    let decision = ac.handle_arrival(task, 1, at(210)).unwrap();
    assert!(matches!(decision, Decision::Accept { newly_admitted: false, .. }));
}

/// The inverse order: drain and let the sentinel *expire normally* — the
/// capacity must actually free (the drained guarantee covers only the
/// in-flight window).
#[test]
fn drained_entry_expires_and_frees_capacity_when_not_reseeded() {
    let tasks = one_periodic();
    let task = tasks.get(TaskId(0)).unwrap();
    let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();
    ac.handle_arrival(task, 0, at(0)).unwrap();

    let drain = ac.reconfigure(cfg("J_N_N"), at(10), &tasks).unwrap();
    assert_eq!(drain.reservations_drained, 1);

    // Before the drained deadline (110 ms) the contributions still guard
    // the in-flight window.
    ac.expire(at(100));
    assert_eq!(ac.current_entries(), 1);
    assert!(ac.ledger().utilizations()[0] > 0.0);

    // Past it, the registry and ledger both drain to empty.
    ac.expire(at(120));
    assert_eq!(ac.current_entries(), 0);
    assert!(ac.ledger().utilizations()[0].abs() < 1e-12);
    let audit = audit_controller(&ac);
    assert!(audit.is_consistent(1e-9));
}

/// Governor-style flapping: many drain/reseed round trips inside one
/// deadline window pile up orphaned heap records on the same task. Every
/// one of them must be discarded by the generation check, and the
/// bookkeeping must come out drift-free.
#[test]
fn rapid_mode_flapping_leaves_no_aliasing_and_no_drift() {
    let tasks = one_periodic();
    let task = tasks.get(TaskId(0)).unwrap();
    let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();
    ac.handle_arrival(task, 0, at(0)).unwrap();
    let loaded = ac.ledger().utilizations();

    // 40 full round trips, 1 ms apart: each drain queues a fresh expiry
    // record; each reseed orphans it.
    for i in 0..40u64 {
        let now = at(1 + 2 * i);
        let drain = ac.reconfigure(cfg("J_N_N"), now, &tasks).unwrap();
        assert_eq!(drain.reservations_drained, 1, "cycle {i}");
        let reseed = ac.reconfigure(cfg("T_N_N"), now + Duration::from_millis(1), &tasks).unwrap();
        assert_eq!(reseed.reservations_reseeded, 1, "cycle {i}");
    }
    assert!(ac.is_reserved(TaskId(0)));
    assert_eq!(ac.current_entries(), 1);

    // Flush every orphaned record far past all drained deadlines.
    ac.expire(at(10_000));
    assert!(ac.is_reserved(TaskId(0)), "40 stale records, zero evictions");
    assert_eq!(ac.current_entries(), 1);
    for (have, want) in ac.ledger().utilizations().iter().zip(&loaded) {
        assert!((have - want).abs() < 1e-9, "utilization drifted: {have} vs {want}");
    }
    let audit = audit_controller(&ac);
    assert!(audit.is_consistent(1e-9), "cached sums drifted {}", audit.max_cached_drift);
    assert_eq!(audit.violating_entries, 0);
    let drift = ac.reconcile();
    assert!(drift < 1e-9, "reconcile corrected {drift}");
}

/// A reservation whose replica lives on another processor, round-tripped
/// drain → reseed next to a busy neighbor, then flushed past every drained
/// deadline: the reseeded reservations survive on their original
/// placements, utilization is carried exactly, and reconciliation finds
/// nothing to correct.
#[test]
fn replicated_reservation_round_trip_survives_late_expiry() {
    // The first task runs on processor 0 with a replica on 3; its neighbor
    // keeps processors 2 and 3 busy while the reservation moves.
    let replicated = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
        .subtask(Duration::from_millis(20), ProcessorId(0), [ProcessorId(3)])
        .build()
        .unwrap();
    let neighbor = TaskBuilder::periodic(TaskId(1), Duration::from_millis(100))
        .subtask(Duration::from_millis(15), ProcessorId(2), [ProcessorId(3)])
        .build()
        .unwrap();
    let tasks = TaskSet::from_tasks([replicated.clone(), neighbor.clone()]).unwrap();
    let mut ac = AdmissionController::new(cfg("T_N_N"), 4).unwrap();

    for task in [&replicated, &neighbor] {
        let decision = ac.handle_arrival(task, 0, at(0)).unwrap();
        assert!(matches!(decision, Decision::Accept { .. }));
    }
    assert_eq!(ac.reserved_tasks(), 2);
    let loaded = ac.ledger().utilizations();

    // Drain: both reservations become deadline-bound sentinel entries.
    let drain = ac.reconfigure(cfg("J_N_N"), at(10), &tasks).unwrap();
    assert_eq!(drain.reservations_drained, 2);
    assert_eq!(ac.reserved_tasks(), 0);
    assert_eq!(ac.current_entries(), 2);
    assert_eq!(ac.ledger().utilizations(), loaded);

    // Reseed before the drained deadlines: both convert back in place.
    let reseed = ac.reconfigure(cfg("T_N_N"), at(20), &tasks).unwrap();
    assert_eq!(reseed.reservations_reseeded, 2);
    assert_eq!(reseed.reseeds_skipped, 0);
    assert!(ac.is_reserved(TaskId(0)));
    assert!(ac.is_reserved(TaskId(1)));

    // Flush the orphaned drain records far past their deadlines.
    ac.expire(at(10_000));
    assert_eq!(ac.reserved_tasks(), 2, "stale expiry evicted a reseeded reservation");
    assert_eq!(ac.current_entries(), 2);
    for (have, want) in ac.ledger().utilizations().iter().zip(&loaded) {
        assert!((have - want).abs() < 1e-9, "utilization drifted: {have} vs {want}");
    }
    let audit = audit_controller(&ac);
    assert!(audit.is_consistent(1e-9), "cached sums drifted {}", audit.max_cached_drift);
    let drift = ac.reconcile();
    assert!(drift < 1e-9, "reconcile corrected {drift}");

    // Later jobs still pass through on the reseeded reservation.
    let decision = ac.handle_arrival(&replicated, 1, at(10_100)).unwrap();
    assert!(matches!(decision, Decision::Accept { newly_admitted: false, .. }));
}
