//! The sharded tenant registry.
//!
//! [`Fleet`] maps stable [`TenantId`]s to tracker instances across a fixed
//! set of shards, so tenant lookup, registration and eviction contend only
//! per shard. The lineage table — content hash to
//! [`EncodingLineage`](dacce::EncodingLineage) — is the single shared
//! structure: registration consults it to decide between *founding* a new
//! lineage (first tenant of a program: pays the warm-start encode) and
//! *attaching* to an existing one (every later tenant: adopts the shared
//! state wholesale, zero cold-start traps). Eviction detaches from the
//! lineage and drops it when the last tenant leaves; attach/detach happen
//! under the lineage-table lock so a racing register can never attach to a
//! lineage an evict is about to free.

use dacce::sync::{AtomicU64, Mutex, Ordering};
use dacce::{DacceConfig, EncodingLineage, Tracker};
use std::collections::HashMap;
use std::fmt;

use crate::program::ProgramDef;

/// Shard count; a power of two so the shard index is a mask.
const SHARDS: usize = 16;

/// A stable fleet-wide tenant identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u64);

impl TenantId {
    /// The raw id value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

#[derive(Debug)]
struct Tenant {
    label: String,
    hash: u64,
    tracker: Tracker,
}

/// Aggregate registry statistics (see [`Fleet::fleet_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Tenants currently registered.
    pub tenants: usize,
    /// Distinct encoding lineages currently alive.
    pub lineages: usize,
    /// Registrations that founded a new lineage (paid the encode).
    pub founded: u64,
    /// Registrations that attached to an existing lineage (zero-trap).
    pub attached: u64,
    /// Tenants currently diverged (copy-on-write) off their lineage.
    pub diverged: usize,
    /// Lineage generations adopted across all tenants.
    pub adoptions: u64,
    /// Lineage generations published across all tenants.
    pub publishes: u64,
}

/// A sharded, content-addressed registry of tracker tenants.
#[derive(Debug)]
pub struct Fleet {
    config: DacceConfig,
    shards: Vec<Mutex<HashMap<u64, Tenant>>>,
    /// Content hash -> shared lineage. Attach/detach refcounting happens
    /// under this lock (see module docs).
    lineages: Mutex<HashMap<u64, EncodingLineage>>,
    next_tenant: AtomicU64,
    founded: AtomicU64,
    attached: AtomicU64,
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new()
    }
}

impl Fleet {
    /// A fleet whose tenants run the default engine configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(DacceConfig::default())
    }

    /// A fleet whose tenants run `config` (fault plans included: each
    /// tenant arms its own copy, so injected degradation stays
    /// per-tenant).
    #[must_use]
    pub fn with_config(config: DacceConfig) -> Self {
        Fleet {
            config,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            lineages: Mutex::new(HashMap::new()),
            next_tenant: AtomicU64::new(0),
            founded: AtomicU64::new(0),
            attached: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: TenantId) -> &Mutex<HashMap<u64, Tenant>> {
        &self.shards[(id.0 as usize) & (SHARDS - 1)]
    }

    /// Registers a tenant running `def` and returns its id. The first
    /// tenant of a definition founds the lineage (building the seeded
    /// encoding once); every later tenant attaches to it and starts with
    /// zero cold-start traps.
    ///
    /// # Panics
    ///
    /// Panics if `def` fails [`ProgramDef::validate`].
    pub fn register(&self, label: &str, def: &ProgramDef) -> TenantId {
        def.validate().expect("program definition is well-formed");
        let hash = def.content_hash();
        let tracker = {
            let mut lineages = self.lineages.lock();
            if let Some(lineage) = lineages.get(&hash) {
                lineage.attach();
                self.attached.fetch_add(1, Ordering::Relaxed);
                let tracker = Tracker::with_lineage(self.config.clone(), lineage);
                declare(&tracker, def);
                tracker
            } else {
                // Founding serialises on the lineage table: the encode runs
                // under the lock so a racing twin attaches instead of
                // founding a duplicate.
                let tracker = Tracker::with_config(self.config.clone());
                declare(&tracker, def);
                let _ = tracker.warm_start(def.main_fn(), &def.seed());
                let lineage = tracker.found_lineage(hash);
                lineage.attach();
                lineages.insert(hash, lineage);
                self.founded.fetch_add(1, Ordering::Relaxed);
                tracker
            }
        };
        let id = TenantId(self.next_tenant.fetch_add(1, Ordering::Relaxed));
        self.shard(id).lock().insert(
            id.0,
            Tenant {
                label: label.to_string(),
                hash,
                tracker,
            },
        );
        id
    }

    /// The tenant's tracker (a cheap clone of the shared handle).
    #[must_use]
    pub fn tracker(&self, id: TenantId) -> Option<Tracker> {
        self.shard(id).lock().get(&id.0).map(|t| t.tracker.clone())
    }

    /// The tenant's registration label.
    #[must_use]
    pub fn label(&self, id: TenantId) -> Option<String> {
        self.shard(id).lock().get(&id.0).map(|t| t.label.clone())
    }

    /// Evicts a tenant, detaching it from its lineage; the lineage is
    /// dropped when its last tenant leaves. Returns whether the tenant
    /// existed.
    pub fn evict(&self, id: TenantId) -> bool {
        let Some(tenant) = self.shard(id).lock().remove(&id.0) else {
            return false;
        };
        if let Some(lineage) = tenant.tracker.lineage() {
            let mut lineages = self.lineages.lock();
            if lineage.detach() == 0 {
                lineages.remove(&tenant.hash);
            }
        }
        true
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the fleet has no tenants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every tenant: id, label and tracker handle (cheap
    /// clones; used by observability pumps and maintenance sweeps).
    #[must_use]
    pub fn tenants(&self) -> Vec<(TenantId, String, Tracker)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (&raw, t) in shard.lock().iter() {
                out.push((TenantId(raw), t.label.clone(), t.tracker.clone()));
            }
        }
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Maintenance sweep: every attached, non-diverged tenant adopts any
    /// newer generation its lineage published. Returns how many tenants
    /// adopted. (Tenants also adopt lazily on their own slow paths; the
    /// sweep just bounds the staleness.)
    pub fn poll(&self) -> usize {
        self.tenants()
            .iter()
            .filter(|(_, _, tracker)| tracker.poll_lineage())
            .count()
    }

    /// Forces a re-encoding on one tenant (see
    /// [`Tracker::request_reencode`]); on a shared lineage the result is
    /// published for — and adopted by — every sibling. The background
    /// maintenance analogue of the §4 triggers.
    pub fn reencode(&self, id: TenantId) -> bool {
        self.tracker(id).is_some_and(|t| t.request_reencode())
    }

    /// Aggregate fleet statistics, read from each tenant's metrics
    /// registry — intended for dashboards and tests, not per-op paths.
    #[must_use]
    pub fn fleet_stats(&self) -> FleetStats {
        let tenants = self.tenants();
        let mut out = FleetStats {
            tenants: tenants.len(),
            lineages: self.lineages.lock().len(),
            founded: self.founded.load(Ordering::Relaxed),
            attached: self.attached.load(Ordering::Relaxed),
            ..FleetStats::default()
        };
        for (_, _, tracker) in &tenants {
            let metrics = tracker.observability().metrics();
            out.adoptions += metrics.lineage_adoptions.get();
            out.publishes += metrics.lineage_publishes.get();
            if tracker.diverged() {
                out.diverged += 1;
            }
        }
        out
    }
}

/// Declares the definition on a fresh tracker in deterministic order, so
/// the allocated ids line up with every sibling tenant's.
fn declare(tracker: &Tracker, def: &ProgramDef) {
    for name in &def.functions {
        let _ = tracker.define_function(name);
    }
    for _ in 0..def.call_sites {
        let _ = tracker.define_call_site();
    }
}
