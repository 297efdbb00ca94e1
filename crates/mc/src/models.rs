//! Bounded models of the five DACCE lock-free protocols, parameterised
//! over the protocol [`Orderings`] so a mutation suite can weaken one
//! edge at a time and prove the checker catches it.
//!
//! Each model is deliberately tiny (2–3 threads, 2–3 shared operations
//! per thread): large enough that every interleaving of the protocol's
//! publish/consume edges exists, small enough that DFS exploration is
//! exhaustive in milliseconds. The `Ordering` on every declared access is
//! taken from the same named constants the production code uses
//! (`dacce_sync::protocol`), so the models and the runtime cannot drift
//! apart silently: weakening a constant weakens both, and the CI mutation
//! suite overrides one field per protocol instead.

use dacce_sync::protocol;

use crate::model::{Access, Model, Outcome, ThreadDef};
use crate::Ordering;

/// The complete set of protocol orderings the models exercise. Defaults
/// mirror `dacce_sync::protocol`; mutants override exactly one field.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct Orderings {
    pub epoch_publish: Ordering,
    pub epoch_check: Ordering,
    pub icache_epoch_check: Ordering,
    pub ring_stamp_busy: Ordering,
    pub ring_stamp_publish: Ordering,
    pub ring_head_publish: Ordering,
    pub ring_head_read: Ordering,
    pub ring_stamp_validate: Ordering,
    pub ring_validate_fence: Ordering,
    pub ring_stamp_recheck: Ordering,
    pub lineage_gen_publish: Ordering,
    pub lineage_gen_check: Ordering,
}

impl Default for Orderings {
    fn default() -> Orderings {
        Orderings {
            epoch_publish: protocol::EPOCH_PUBLISH,
            epoch_check: protocol::EPOCH_CHECK,
            icache_epoch_check: protocol::ICACHE_EPOCH_CHECK,
            ring_stamp_busy: protocol::RING_STAMP_BUSY,
            ring_stamp_publish: protocol::RING_STAMP_PUBLISH,
            ring_head_publish: protocol::RING_HEAD_PUBLISH,
            ring_head_read: protocol::RING_HEAD_READ,
            ring_stamp_validate: protocol::RING_STAMP_VALIDATE,
            ring_validate_fence: protocol::RING_VALIDATE_FENCE,
            ring_stamp_recheck: protocol::RING_STAMP_RECHECK,
            lineage_gen_publish: protocol::LINEAGE_GEN_PUBLISH,
            lineage_gen_check: protocol::LINEAGE_GEN_CHECK,
        }
    }
}

/// The model names, in the order `all_models` returns them.
pub const MODEL_NAMES: [&str; 5] = [
    "snapshot-publish",
    "lazy-migration",
    "icache-invalidation",
    "ring-drain",
    "lineage-adopt",
];

/// Builds the named model, or `None` for an unknown name.
#[must_use]
pub fn model(name: &str, ord: &Orderings) -> Option<Model> {
    match name {
        "snapshot-publish" => Some(snapshot_publish(ord)),
        "lazy-migration" => Some(lazy_migration(ord)),
        "icache-invalidation" => Some(icache_invalidation(ord)),
        "ring-drain" => Some(ring_drain(ord, true)),
        "lineage-adopt" => Some(lineage_adopt(ord)),
        _ => None,
    }
}

/// All five protocol models under the given orderings.
#[must_use]
pub fn all_models(ord: &Orderings) -> Vec<Model> {
    MODEL_NAMES
        .iter()
        .map(|n| model(n, ord).expect("known name"))
        .collect()
}

/// One deliberately weakened ordering for the mutation suite.
#[derive(Clone, Copy, Debug)]
pub struct Mutant {
    /// Model the mutant runs against.
    pub model: &'static str,
    /// Mutant identifier (CLI/report name).
    pub name: &'static str,
    /// The protocol constant being weakened, for reports.
    pub weakens: &'static str,
    /// Every model that uses the weakened constant (protocols 1–3 share
    /// the epoch pair by design, so a mutation of it is visible to all of
    /// them); models outside this set must stay clean under the mutant.
    pub affects: &'static [&'static str],
    /// The mutated ordering set.
    pub orderings: Orderings,
}

/// The mutation suite: one weakened edge per protocol. The checker must
/// report at least one violation (with a concrete interleaving trace) for
/// every entry.
#[must_use]
pub fn mutants() -> Vec<Mutant> {
    let base = Orderings::default();
    vec![
        Mutant {
            model: "snapshot-publish",
            name: "epoch-check-relaxed",
            weakens: "EPOCH_CHECK: Acquire -> Relaxed",
            affects: &["snapshot-publish", "lazy-migration"],
            orderings: Orderings {
                epoch_check: Ordering::Relaxed,
                ..base
            },
        },
        Mutant {
            model: "lazy-migration",
            name: "epoch-publish-relaxed",
            weakens: "EPOCH_PUBLISH: Release -> Relaxed",
            affects: &["snapshot-publish", "lazy-migration", "icache-invalidation"],
            orderings: Orderings {
                epoch_publish: Ordering::Relaxed,
                ..base
            },
        },
        Mutant {
            model: "icache-invalidation",
            name: "icache-check-relaxed",
            weakens: "ICACHE_EPOCH_CHECK: Acquire -> Relaxed",
            affects: &["icache-invalidation"],
            orderings: Orderings {
                icache_epoch_check: Ordering::Relaxed,
                ..base
            },
        },
        Mutant {
            model: "ring-drain",
            name: "stamp-publish-relaxed",
            weakens: "RING_STAMP_PUBLISH: Release -> Relaxed",
            affects: &["ring-drain"],
            orderings: Orderings {
                ring_stamp_publish: Ordering::Relaxed,
                ..base
            },
        },
        Mutant {
            model: "lineage-adopt",
            name: "gen-check-relaxed",
            weakens: "LINEAGE_GEN_CHECK: Acquire -> Relaxed",
            affects: &["lineage-adopt"],
            orderings: Orderings {
                lineage_gen_check: Ordering::Relaxed,
                ..base
            },
        },
    ]
}

/// Protocol 1 — snapshot publish vs. fast-path read.
///
/// The re-encoder installs a new `EncodingSnapshot` (modelled as a plain
/// table write) and publishes its epoch; a reader checks the epoch on its
/// fast path and consumes the table only when it observed the new epoch.
/// Mirrors `Tracker::republish` / `SlotState::refresh`.
fn snapshot_publish(ord: &Orderings) -> Model {
    let mut m = Model::new(
        "snapshot-publish",
        "re-encoder publishes a snapshot epoch; reader fast-path consumes it",
    );
    let epoch = m.publish_atomic("epoch", 0);
    let table = m.data("table", 0);

    let mut reencoder = ThreadDef::new("reencoder");
    reencoder.op("write-table", Access::DataWrite(table), |cx| {
        cx.write(1);
        Outcome::Next
    });
    reencoder.op(
        "publish-epoch",
        Access::AtomicStore(epoch, ord.epoch_publish),
        |cx| {
            cx.store(1);
            Outcome::Done
        },
    );
    m.push_thread(reencoder);

    let mut reader = ThreadDef::new("reader");
    reader.gate(
        "check-epoch",
        Access::AtomicLoad(epoch, ord.epoch_check),
        |cx| {
            if cx.load() == 0 {
                Outcome::Done // stale epoch: fast path stays on its snapshot
            } else {
                Outcome::Next
            }
        },
    );
    reader.op("read-table", Access::DataRead(table), |cx| {
        let v = cx.read();
        cx.check(v == 1, "observed epoch 1 but stale table");
        Outcome::Done
    });
    m.push_thread(reader);
    m
}

/// Protocol 2 — lazy migration vs. re-encode.
///
/// The re-encoder rewrites the dictionaries under the shared lock and
/// bumps the epoch; a migrating thread notices the epoch on its fast path
/// (outside the lock — that probe is the proof obligation) and then takes
/// the slow path to migrate. A third fast-path thread only probes.
/// Mirrors `reencode_locked` / the `trap_call` migration path.
fn lazy_migration(ord: &Orderings) -> Model {
    let mut m = Model::new(
        "lazy-migration",
        "re-encoder republishes under lock; migrator probes the epoch lock-free, then migrates",
    );
    let epoch = m.publish_atomic("epoch", 0);
    let dict = m.data("dict", 0);
    let shared = m.mutex("shared");

    let mut reencoder = ThreadDef::new("reencoder");
    reencoder.op("lock-shared", Access::Lock(shared), |_| Outcome::Next);
    reencoder.op("write-dict", Access::DataWrite(dict), |cx| {
        cx.write(1);
        Outcome::Next
    });
    reencoder.op(
        "publish-epoch",
        Access::AtomicStore(epoch, ord.epoch_publish),
        |cx| {
            cx.store(1);
            Outcome::Next
        },
    );
    reencoder.op("unlock-shared", Access::Unlock(shared), |_| Outcome::Done);
    m.push_thread(reencoder);

    let mut migrator = ThreadDef::new("migrator");
    migrator.gate(
        "probe-epoch",
        Access::AtomicLoad(epoch, ord.epoch_check),
        |cx| {
            if cx.load() == 0 {
                Outcome::Done
            } else {
                Outcome::Next
            }
        },
    );
    migrator.op("lock-shared", Access::Lock(shared), |_| Outcome::Next);
    migrator.op("migrate-read-dict", Access::DataRead(dict), |cx| {
        let v = cx.read();
        cx.check(v == 1, "migrated against a stale dictionary");
        Outcome::Next
    });
    migrator.op("unlock-shared", Access::Unlock(shared), |_| Outcome::Done);
    m.push_thread(migrator);

    let mut worker = ThreadDef::new("fastpath");
    worker.gate(
        "probe-epoch",
        Access::AtomicLoad(epoch, ord.epoch_check),
        |cx| {
            let _ = cx.load();
            Outcome::Done
        },
    );
    m.push_thread(worker);
    m
}

/// Protocol 3 — inline-cache invalidation vs. republish.
///
/// A republish moves the dispatch target and bumps the epoch; a caller's
/// inline-cache hit is valid only if the entry's stamped epoch equals the
/// current one, so the epoch load is the gate that protects the cached
/// target. Mirrors `InlineCache::probe` against `Tracker::republish`.
fn icache_invalidation(ord: &Orderings) -> Model {
    let mut m = Model::new(
        "icache-invalidation",
        "republish retargets a polymorphic site; caller validates its inline-cache epoch stamp",
    );
    let epoch = m.publish_atomic("epoch", 0);
    let target = m.data("target", 0);

    let mut republisher = ThreadDef::new("republisher");
    republisher.op("retarget-site", Access::DataWrite(target), |cx| {
        cx.write(1);
        Outcome::Next
    });
    republisher.op(
        "publish-epoch",
        Access::AtomicStore(epoch, ord.epoch_publish),
        |cx| {
            cx.store(1);
            Outcome::Done
        },
    );
    m.push_thread(republisher);

    let mut caller = ThreadDef::new("caller");
    caller.gate(
        "validate-cache-epoch",
        Access::AtomicLoad(epoch, ord.icache_epoch_check),
        |cx| {
            if cx.load() == 0 {
                Outcome::Done // stamp matches: inline-cache hit, cached target used
            } else {
                Outcome::Next // invalidated: refill from the dispatch table
            }
        },
    );
    caller.op("refill-read-target", Access::DataRead(target), |cx| {
        let v = cx.read();
        cx.check(v == 1, "cache invalidated but read a stale target");
        Outcome::Done
    });
    m.push_thread(caller);
    m
}

/// Protocol 4 — seqlock ring write vs. drain.
///
/// A capacity-1 ring: the producer pushes two records (the second
/// overwrites the slot mid-flight), the drainer runs one unrolled
/// validate/read/fence/recheck section for record 0. Word cells are
/// relaxed atomics exactly as in `EventRing`; the stamp-validate load is
/// the publish gate. `recheck` controls whether the drainer re-validates
/// the stamp after the word reads — disabling it (see
/// [`ring_drain_no_recheck`]) makes torn consumes reachable and is how
/// the R3 rule's teeth are tested.
fn ring_drain(ord: &Orderings, recheck: bool) -> Model {
    let mut m = Model::new(
        if recheck {
            "ring-drain"
        } else {
            "ring-drain-no-recheck"
        },
        "seqlock event ring: producer overwrites the slot while the drainer validates and reads",
    );
    let stamp = m.publish_atomic("stamp", 0);
    let w0 = m.atomic("word0", 0);
    let w1 = m.atomic("word1", 0);
    let head = m.publish_atomic("head", 0);
    const WORD_ACCESS: Ordering = protocol::RING_WORD_ACCESS;

    let mut producer = ThreadDef::new("producer");
    for rec in 0..2u64 {
        producer.op(
            if rec == 0 { "busy-0" } else { "busy-1" },
            Access::AtomicStore(stamp, ord.ring_stamp_busy),
            move |cx| {
                cx.store(2 * rec + 1);
                Outcome::Next
            },
        );
        producer.op(
            if rec == 0 { "word0-0" } else { "word0-1" },
            Access::AtomicStore(w0, WORD_ACCESS),
            move |cx| {
                cx.store(10 * (rec + 1));
                Outcome::Next
            },
        );
        producer.op(
            if rec == 0 { "word1-0" } else { "word1-1" },
            Access::AtomicStore(w1, WORD_ACCESS),
            move |cx| {
                cx.store(10 * (rec + 1) + 1);
                Outcome::Next
            },
        );
        producer.op(
            if rec == 0 { "publish-0" } else { "publish-1" },
            Access::AtomicStore(stamp, ord.ring_stamp_publish),
            move |cx| {
                cx.store(2 * rec + 2);
                Outcome::Next
            },
        );
        producer.op(
            if rec == 0 { "head-0" } else { "head-1" },
            Access::AtomicStore(head, ord.ring_head_publish),
            move |cx| {
                cx.store(rec + 1);
                if rec == 1 {
                    Outcome::Done
                } else {
                    Outcome::Next
                }
            },
        );
    }
    m.push_thread(producer);

    let mut drainer = ThreadDef::new("drainer");
    drainer.gate(
        "read-head",
        Access::AtomicLoad(head, ord.ring_head_read),
        |cx| {
            if cx.load() == 0 {
                Outcome::Done // nothing published yet
            } else {
                Outcome::Next
            }
        },
    );
    drainer.gate(
        "validate-stamp",
        Access::AtomicLoad(stamp, ord.ring_stamp_validate),
        |cx| {
            if cx.load() == 2 {
                Outcome::Next
            } else {
                Outcome::Done // busy or already overwritten: skip as dropped
            }
        },
    );
    drainer.seq_read("read-word0", Access::AtomicLoad(w0, WORD_ACCESS), |cx| {
        let v = cx.load();
        cx.set_local(0, v);
        Outcome::Next
    });
    drainer.seq_read("read-word1", Access::AtomicLoad(w1, WORD_ACCESS), |cx| {
        let v = cx.load();
        cx.set_local(1, v);
        Outcome::Next
    });
    drainer.op(
        "validate-fence",
        Access::Fence(ord.ring_validate_fence),
        |_| Outcome::Next,
    );
    if recheck {
        drainer.op(
            "recheck-stamp",
            Access::AtomicLoad(stamp, ord.ring_stamp_recheck),
            |cx| {
                if cx.load() == 2 {
                    Outcome::Next
                } else {
                    cx.seq_discard(); // overwritten mid-read: record dropped
                    Outcome::Done
                }
            },
        );
    }
    drainer.op("consume", Access::Local, |cx| {
        cx.seq_consume(1);
        let (v0, v1) = (cx.local(0), cx.local(1));
        cx.check(
            v0 == 10 && v1 == 11,
            "validated section consumed torn words",
        );
        Outcome::Done
    });
    m.push_thread(drainer);
    m
}

/// The [`ring_drain`] model with the stamp recheck removed — a protocol
/// bug (not an ordering mutant) that makes torn consumes reachable. Used
/// to demonstrate the R3 rule catches dropped obligations.
#[must_use]
pub fn ring_drain_no_recheck(ord: &Orderings) -> Model {
    ring_drain(ord, false)
}

/// Protocol 5 — lineage adopt vs. copy-on-write split.
///
/// A publishing tenant installs the next lineage generation under the
/// lineage lock and bumps the generation mirror; an adopting tenant
/// probes the mirror lock-free (the gate) before taking the lock to
/// adopt; a diverging tenant clones the state under the lock (CoW split).
/// Mirrors `EncodingLineage::{publish_into, generation, current}`.
fn lineage_adopt(ord: &Orderings) -> Model {
    let mut m = Model::new(
        "lineage-adopt",
        "tenant publishes a lineage generation; peers adopt or CoW-split off it",
    );
    let gen = m.publish_atomic("generation", 0);
    let state = m.data("lineage-state", 0);
    let lock = m.mutex("lineage");

    let mut publisher = ThreadDef::new("publisher");
    publisher.op("lock-lineage", Access::Lock(lock), |_| Outcome::Next);
    publisher.op("install-state", Access::DataWrite(state), |cx| {
        cx.write(1);
        Outcome::Next
    });
    publisher.op(
        "publish-generation",
        Access::AtomicStore(gen, ord.lineage_gen_publish),
        |cx| {
            cx.store(1);
            Outcome::Next
        },
    );
    publisher.op("unlock-lineage", Access::Unlock(lock), |_| Outcome::Done);
    m.push_thread(publisher);

    let mut adopter = ThreadDef::new("adopter");
    adopter.gate(
        "probe-generation",
        Access::AtomicLoad(gen, ord.lineage_gen_check),
        |cx| {
            if cx.load() == 0 {
                Outcome::Done // already current: no adoption needed
            } else {
                Outcome::Next
            }
        },
    );
    adopter.op("lock-lineage", Access::Lock(lock), |_| Outcome::Next);
    adopter.op("adopt-read-state", Access::DataRead(state), |cx| {
        let v = cx.read();
        cx.check(v == 1, "adopted a stale generation");
        Outcome::Next
    });
    adopter.op("unlock-lineage", Access::Unlock(lock), |_| Outcome::Done);
    m.push_thread(adopter);

    let mut diverger = ThreadDef::new("diverger");
    diverger.op("lock-lineage", Access::Lock(lock), |_| Outcome::Next);
    diverger.op("cow-read-state", Access::DataRead(state), |cx| {
        let _ = cx.read();
        Outcome::Next
    });
    diverger.op("unlock-lineage", Access::Unlock(lock), |_| Outcome::Done);
    m.push_thread(diverger);
    m
}
