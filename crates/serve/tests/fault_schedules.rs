//! Pins the seeded fault schedules the soaks, the kill/resume suite and
//! `fault_recovery` inject: each domain's `random` draw, at the seeds and
//! sizes those runs use, must keep producing exactly these events.

use apf_distsim::fabric::{FabricFaultKind, FabricFaultRates};
use apf_distsim::fault::{FaultKind, FaultRates};
use apf_serve::wire::{NetFaultKind, NetFaultRates};
use apf_serve::{InferenceFaultKind, ServeFaultRates};

use FabricFaultKind::Straggler as FabricStraggler;
use InferenceFaultKind::{NonFiniteOutput as NonFinite, SlowInference as Slow, WorkerPanic as Panic};
use NetFaultKind::{Disconnect, Garbage, StalledWrite, TornWrite};

#[test]
fn serve_soak_plan_at_seed_7() {
    let plan = ServeFaultRates::default().random(7, 200, 2);
    let got: Vec<_> = plan.events().iter().map(|e| (e.worker, e.nth, e.kind)).collect();
    let want = [
        (0, 15, NonFinite), (0, 26, Slow { delay_ms: 4 }), (0, 41, NonFinite), (0, 44, Panic),
        (0, 46, Slow { delay_ms: 3 }), (0, 50, Slow { delay_ms: 2 }), (0, 59, Slow { delay_ms: 4 }),
        (0, 84, Slow { delay_ms: 9 }), (0, 92, Panic), (0, 100, NonFinite), (0, 114, NonFinite),
        (0, 120, Slow { delay_ms: 4 }), (0, 128, NonFinite), (0, 133, Slow { delay_ms: 6 }),
        (0, 136, Panic), (0, 158, Slow { delay_ms: 6 }), (0, 187, NonFinite), (1, 2, NonFinite),
        (1, 15, Slow { delay_ms: 3 }), (1, 23, Panic), (1, 35, NonFinite),
        (1, 37, Slow { delay_ms: 10 }), (1, 39, Panic), (1, 65, NonFinite),
        (1, 87, Slow { delay_ms: 2 }), (1, 95, Slow { delay_ms: 1 }), (1, 130, NonFinite),
        (1, 157, Slow { delay_ms: 5 }), (1, 160, Panic), (1, 190, Panic),
        (1, 191, Slow { delay_ms: 5 }),
    ];
    assert_eq!(got, want);
}

#[test]
fn frontdoor_soak_quick_engine_plan_with_its_guaranteed_panic() {
    // --quick: seed 7, 4 clients x 12 requests, 2 workers.
    let plan = ServeFaultRates::default().random(7 ^ 0xE6, 48, 2).with_burst((0, 3), 1, Panic);
    let got: Vec<_> = plan.events().iter().map(|e| (e.worker, e.nth, e.kind)).collect();
    let want = [
        (0, 3, Panic), (0, 4, Panic), (0, 5, Slow { delay_ms: 2 }), (0, 6, Slow { delay_ms: 2 }),
        (0, 9, NonFinite), (0, 11, Panic), (0, 25, Slow { delay_ms: 5 }), (1, 17, Panic),
        (1, 42, Slow { delay_ms: 10 }), (1, 47, Slow { delay_ms: 5 }),
    ];
    assert_eq!(got, want);
}

#[test]
fn frontdoor_soak_quick_socket_plans() {
    // --quick: 12 requests x 4 attempts per client; tenant 1 is the
    // starved tenant and runs without socket faults.
    let plan = |tenant: u64| {
        let events = NetFaultRates::default().random(7 ^ (0xC11E << 8) ^ tenant, 48);
        events.events().iter().map(|e| (e.nth, e.kind)).collect::<Vec<_>>()
    };
    let want0 = [
        (1, TornWrite { keep_bytes: 18 }), (6, TornWrite { keep_bytes: 45 }),
        (10, TornWrite { keep_bytes: 11 }), (15, StalledWrite { keep_bytes: 16, stall_ms: 102 }),
        (18, TornWrite { keep_bytes: 94 }), (20, Garbage { len: 46 }), (34, Garbage { len: 43 }),
        (35, Disconnect), (45, Garbage { len: 5 }),
    ];
    let want2 = [
        (5, Disconnect), (20, Disconnect), (31, StalledWrite { keep_bytes: 3, stall_ms: 66 }),
        (34, StalledWrite { keep_bytes: 5, stall_ms: 64 }), (41, Disconnect),
        (46, Garbage { len: 87 }),
    ];
    let want3 = [
        (3, TornWrite { keep_bytes: 63 }), (14, TornWrite { keep_bytes: 18 }),
        (38, TornWrite { keep_bytes: 74 }), (41, StalledWrite { keep_bytes: 6, stall_ms: 67 }),
        (46, Garbage { len: 53 }),
    ];
    assert_eq!(plan(0), want0);
    assert_eq!(plan(2), want2);
    assert_eq!(plan(3), want3);
}

#[test]
fn fabric_plan_at_seed_7() {
    let plan = FabricFaultRates::default().random(7, 40, 4);
    let got: Vec<_> = plan.events().iter().map(|e| (e.worker, e.nth, e.kind)).collect();
    let want = [
        (0, 23, FabricFaultKind::Panic), (1, 38, FabricStraggler { delay_ms: 9 }),
        (2, 1, FabricStraggler { delay_ms: 2 }), (2, 10, FabricStraggler { delay_ms: 2 }),
        (2, 24, FabricStraggler { delay_ms: 10 }), (3, 1, FabricStraggler { delay_ms: 1 }),
        (3, 18, FabricStraggler { delay_ms: 7 }), (3, 20, FabricStraggler { delay_ms: 9 }),
        (3, 31, FabricStraggler { delay_ms: 6 }),
    ];
    assert_eq!(got, want);
}

#[test]
fn engine_plan_at_seed_11() {
    let rates = FaultRates { crash: 0.05, corruption: 0.1, straggler: 0.1, straggler_ms: (1, 3) };
    let plan = rates.random(11, 6, 4);
    let got: Vec<_> = plan.events().iter().map(|e| (e.step, e.kind)).collect();
    let want = [
        (2, FaultKind::GradCorruption { rank: 0 }), (2, FaultKind::WorkerCrash { rank: 2 }),
        (4, FaultKind::Straggler { rank: 1, delay_ms: 2 }),
        (4, FaultKind::Straggler { rank: 3, delay_ms: 3 }),
        (5, FaultKind::Straggler { rank: 1, delay_ms: 3 }),
    ];
    assert_eq!(got, want);
}
