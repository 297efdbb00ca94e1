//! Fleet registry behaviour: content-addressed sharing, zero-trap
//! attachment, shared-lineage re-encoding, copy-on-write divergence,
//! eviction, and per-tenant fault containment.

use dacce::{DacceConfig, FaultPlan, Tracker};
use dacce_fleet::{DefEdge, Fleet, ProgramDef};

/// A small fan-out program: `main` calls `k` leaves through distinct
/// direct sites, leaf 1 calls a shared helper.
fn fan_def(k: usize) -> ProgramDef {
    let mut functions = vec!["main".to_string()];
    for i in 1..=k {
        functions.push(format!("leaf{i}"));
    }
    functions.push("helper".to_string());
    let helper = k + 1;
    let mut edges: Vec<DefEdge> = (1..=k)
        .map(|i| DefEdge {
            caller: 0,
            callee: i,
            site: i - 1,
            indirect: false,
        })
        .collect();
    edges.push(DefEdge {
        caller: 1,
        callee: helper,
        site: k,
        indirect: false,
    });
    ProgramDef {
        functions,
        main: 0,
        call_sites: k + 1,
        edges,
        tail_fns: vec![],
        extra_roots: vec![],
    }
}

/// Drives every definition edge once from a fresh thread.
fn drive_all_edges(tracker: &Tracker, def: &ProgramDef) {
    let thread = tracker.register_thread(def.main_fn());
    for i in 1..def.functions.len() - 1 {
        let guard = thread.call(def.site(i - 1), def.function(i));
        if i == 1 {
            let inner = thread.call(
                def.site(def.call_sites - 1),
                def.function(def.functions.len() - 1),
            );
            drop(inner);
        }
        drop(guard);
    }
}

#[test]
fn nth_tenant_attaches_with_zero_cold_start_traps() {
    let def = fan_def(6);
    let fleet = Fleet::new();
    let founder = fleet.register("founder", &def);
    drive_all_edges(&fleet.tracker(founder).unwrap(), &def);
    assert_eq!(
        fleet.tracker(founder).unwrap().stats().traps,
        0,
        "the founder is warm-started; seeded edges never trap"
    );

    for n in 0..20 {
        let id = fleet.register(&format!("svc-{n}"), &def);
        let tracker = fleet.tracker(id).unwrap();
        drive_all_edges(&tracker, &def);
        assert_eq!(tracker.stats().traps, 0, "tenant {n} must not trap");
        tracker.check_invariants().unwrap();
    }

    let stats = fleet.fleet_stats();
    assert_eq!(stats.tenants, 21);
    assert_eq!(stats.lineages, 1, "all tenants share one lineage");
    assert_eq!(stats.founded, 1);
    assert_eq!(stats.attached, 20);
    assert_eq!(stats.diverged, 0);
}

#[test]
fn journaling_off_fleet_holds_no_journal_rings() {
    let def = fan_def(6);
    let fleet = Fleet::new();
    for n in 0..64 {
        let id = fleet.register(&format!("svc-{n}"), &def);
        drive_all_edges(&fleet.tracker(id).unwrap(), &def);
    }
    let tenants = fleet.tenants();
    assert_eq!(tenants.len(), 64);
    // Warm starts, attachment and driving all ran with the journal off:
    // each tenant holds a runtime writer and a thread writer, no ring.
    for (id, _, tracker) in &tenants {
        let journal = tracker.observability().journal();
        assert_eq!(journal.writer_count(), 2, "tenant {id}");
        assert_eq!(journal.ring_count(), 0, "tenant {id}");
    }
}

#[test]
fn distinct_definitions_get_distinct_lineages() {
    let fleet = Fleet::new();
    fleet.register("a", &fan_def(3));
    fleet.register("b", &fan_def(3));
    fleet.register("c", &fan_def(5));
    let stats = fleet.fleet_stats();
    assert_eq!(stats.lineages, 2);
    assert_eq!(stats.founded, 2);
    assert_eq!(stats.attached, 1);
}

#[test]
fn one_reencode_serves_every_attached_tenant() {
    let def = fan_def(4);
    let fleet = Fleet::new();
    let founder = fleet.register("founder", &def);
    let siblings: Vec<_> = (0..5)
        .map(|n| fleet.register(&format!("svc-{n}"), &def))
        .collect();

    // Drive the founder, then force a maintenance re-encode: the new
    // generation is published into the lineage.
    drive_all_edges(&fleet.tracker(founder).unwrap(), &def);
    assert!(fleet.reencode(founder), "forced re-encode must apply");

    // The sweep adopts it everywhere; a second sweep finds nothing new.
    assert_eq!(fleet.poll(), siblings.len());
    assert_eq!(fleet.poll(), 0);

    let stats = fleet.fleet_stats();
    assert_eq!(stats.publishes, 1, "exactly one tenant paid the encode");
    assert_eq!(stats.adoptions, siblings.len() as u64);

    // Every sibling keeps decoding exactly on the adopted generation.
    for id in siblings {
        let tracker = fleet.tracker(id).unwrap();
        let thread = tracker.register_thread(def.main_fn());
        let _g = thread.call(def.site(1), def.function(2));
        let path = tracker.decode(&thread.sample()).unwrap();
        assert_eq!(tracker.format_path(&path), "main -> leaf2");
        assert_eq!(tracker.stats().traps, 0);
        tracker.check_invariants().unwrap();
    }
}

#[test]
fn divergence_is_copy_on_write_and_private() {
    let def = fan_def(3);
    let fleet = Fleet::new();
    let a = fleet.register("steady", &def);
    let b = fleet.register("wanderer", &def);

    // Tenant B grows an edge the definition does not have: a private
    // function behind a private indirect site. That traps, diverges B
    // off the lineage, and must not disturb A.
    let tb = fleet.tracker(b).unwrap();
    let priv_fn = tb.define_function("private");
    let priv_site = tb.define_call_site();
    let thread_b = tb.register_thread(def.main_fn());
    {
        let _leaf = thread_b.call(def.site(0), def.function(1));
        let _private = thread_b.call_indirect(priv_site, priv_fn);
        let path = tb.decode(&thread_b.sample()).unwrap();
        assert_eq!(tb.format_path(&path), "main -> leaf1 -> private");
    }
    assert!(tb.diverged());
    assert_eq!(tb.observability().snapshot().lineage_divergences, 1);
    tb.check_invariants().unwrap();

    let ta = fleet.tracker(a).unwrap();
    assert!(!ta.diverged());
    drive_all_edges(&ta, &def);
    assert_eq!(ta.stats().traps, 0, "sibling keeps its zero-trap encoding");
    ta.check_invariants().unwrap();

    // A diverged tenant's re-encodes stay local: the shared lineage sees
    // no publication, and the steady tenant has nothing to adopt.
    tb.request_reencode();
    assert!(!ta.poll_lineage());
    assert_eq!(fleet.fleet_stats().diverged, 1);
    assert_eq!(fleet.fleet_stats().publishes, 0);
}

#[test]
fn eviction_drops_the_lineage_with_its_last_tenant() {
    let def = fan_def(2);
    let fleet = Fleet::new();
    let ids: Vec<_> = (0..3)
        .map(|n| fleet.register(&format!("svc-{n}"), &def))
        .collect();
    assert_eq!(fleet.fleet_stats().lineages, 1);

    assert!(fleet.evict(ids[0]));
    assert!(fleet.evict(ids[1]));
    assert_eq!(fleet.fleet_stats().lineages, 1, "one tenant still attached");
    assert!(fleet.evict(ids[2]));
    assert!(!fleet.evict(ids[2]), "double evict is a no-op");
    let stats = fleet.fleet_stats();
    assert_eq!(stats.tenants, 0);
    assert_eq!(stats.lineages, 0, "last eviction frees the lineage");

    // Re-registering founds a fresh lineage.
    fleet.register("svc-again", &def);
    let stats = fleet.fleet_stats();
    assert_eq!(stats.lineages, 1);
    assert_eq!(stats.founded, 2);
}

#[test]
fn repeated_warm_start_on_an_attached_tenant_is_idempotent() {
    let def = fan_def(3);
    let fleet = Fleet::new();
    fleet.register("founder", &def);
    let id = fleet.register("twin", &def);
    let tracker = fleet.tracker(id).unwrap();

    // The attached tenant adopted the founder's warm-started state; an
    // identical warm start must be recognised and return the cached
    // report instead of double-seeding (or tripping the "must precede
    // registration" guard).
    let r1 = tracker.warm_start(def.main_fn(), &def.seed());
    let r2 = tracker.warm_start(def.main_fn(), &def.seed());
    assert_eq!(r1.seeded_edges, def.edges.len());
    assert_eq!(r1.seeded_edges, r2.seeded_edges);
    assert_eq!(r1.max_id, r2.max_id);

    drive_all_edges(&tracker, &def);
    assert_eq!(tracker.stats().traps, 0);
    tracker.check_invariants().unwrap();
}

#[test]
fn fault_degradation_stays_per_tenant() {
    // Arm an id-space cap low enough that a diverging tenant's re-encode
    // exhausts it. Only the tenant that actually grows its graph and
    // re-encodes degrades; its seven siblings — same config, same armed
    // plan — stay clean, and the shared lineage never sees the
    // overflowed generation.
    let plan = FaultPlan {
        max_id_cap: Some(24),
        ..FaultPlan::default()
    };
    let def = fan_def(3);
    let fleet = Fleet::with_config(DacceConfig::with_fault(plan));
    let ids: Vec<_> = (0..8)
        .map(|n| fleet.register(&format!("svc-{n}"), &def))
        .collect();

    // Tenant 0 wanders: a private sink gains a new caller per iteration,
    // so its calling-context count — and with it `maxID` — grows past the
    // cap and the forced re-encode hits the id-exhaustion path.
    let t0 = fleet.tracker(ids[0]).unwrap();
    let sink = t0.define_function("sink");
    let thread = t0.register_thread(def.main_fn());
    for i in 0..30 {
        let f = t0.define_function(&format!("wild{i}"));
        let s_wild = t0.define_call_site();
        let s_sink = t0.define_call_site();
        let wild = thread.call_indirect(s_wild, f);
        drop(thread.call(s_sink, sink));
        drop(wild);
        t0.request_reencode();
    }
    assert!(t0.diverged());
    let degraded = t0.stats();
    assert!(
        degraded.overflow_aborts > 0 || degraded.degraded.any(),
        "the capped tenant must hit its overflow path"
    );

    for &id in &ids[1..] {
        let tracker = fleet.tracker(id).unwrap();
        drive_all_edges(&tracker, &def);
        let stats = tracker.stats();
        assert_eq!(stats.traps, 0, "sibling {id} must stay zero-trap");
        assert!(!stats.degraded.any(), "sibling {id} must not degrade");
        assert_eq!(
            tracker.observability().snapshot().lineage_adoptions,
            0,
            "nothing was published to adopt"
        );
        tracker.check_invariants().unwrap();
    }
    assert_eq!(fleet.fleet_stats().publishes, 0);
}
