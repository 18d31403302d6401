//! # lddp-fleet
//!
//! A heterogeneous serving fleet for LDDP problems: several modelled
//! [`Platform`](hetero_sim::platform::Platform) presets, each with its
//! own host [`ParallelEngine`] worker pool, behind a cost-aware
//! [`Dispatcher`] that places every admitted batch on the pool with the
//! **earliest predicted completion** — the per-platform §IV cost-model
//! estimate plus that pool's predicted backlog.
//!
//! The crate is deliberately mechanism-only and std-only: it knows how
//! to score, place, count and split, but computing the per-platform
//! estimates (cost model + tuner cache) and executing placed batches is
//! the caller's job — in this workspace, the umbrella crate's
//! `FleetBackend`, which prices large grids as
//! [`core::multi`](lddp_core::multi)'s k-way `MultiPlan` band splits
//! over several simulated devices and answers them, like every request,
//! on the placed pool's engine.
//!
//! ```
//! use lddp_fleet::{default_fleet, Fleet};
//!
//! let fleet = Fleet::new(default_fleet());
//! // Cheapest completion over (backlog + estimate): hetero-high idle.
//! let p = fleet.dispatcher().place(&[0.010, 0.018, 0.045]);
//! assert_eq!(fleet.pool(p.platform).spec.name, "hetero-high");
//! ```

#![warn(missing_docs)]

pub mod dispatcher;
pub mod metrics;
pub mod platform;
pub mod split;

pub use dispatcher::{Dispatcher, Placement};
pub use metrics::FleetMetrics;
pub use platform::{default_fleet, FleetPlatform};
pub use split::{band_widths, per_band_params, split_bands};

use lddp_parallel::ParallelEngine;
use lddp_trace::live::LiveRegistry;
use std::sync::Arc;

/// Readiness of one platform's host worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStatus {
    /// Fleet member name ("hetero-high", …).
    pub platform: String,
    /// `true` when no pool worker has died (or the pool was never
    /// needed — a 1-thread member solves inline).
    pub ready: bool,
    /// Workers currently dead awaiting a heal.
    pub dead_workers: usize,
}

/// One fleet member's execution half: its spec plus the host engine
/// that runs batches placed on it.
pub struct PlatformPool {
    /// The member's name and modelled platform.
    pub spec: FleetPlatform,
    /// Host thread engine for wall-clock solves placed here, as wide as
    /// the host: a wider pool on fewer cores spins its barrier against
    /// itself.
    pub engine: ParallelEngine,
}

/// The fleet: per-platform pools, the dispatcher and shared metrics.
pub struct Fleet {
    pools: Vec<PlatformPool>,
    dispatcher: Dispatcher,
    metrics: FleetMetrics,
}

impl Fleet {
    /// A fleet over `specs`, one engine per member, no live registry.
    ///
    /// # Panics
    /// If `specs` is empty — a fleet needs at least one platform.
    pub fn new(specs: Vec<FleetPlatform>) -> Fleet {
        assert!(!specs.is_empty(), "a fleet needs at least one platform");
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let pools = specs
            .into_iter()
            .map(|spec| PlatformPool {
                engine: ParallelEngine::host(),
                spec,
            })
            .collect::<Vec<_>>();
        Fleet {
            dispatcher: Dispatcher::new(pools.len()),
            metrics: FleetMetrics::new(names),
            pools,
        }
    }

    /// Attaches a live registry: every `lddp_fleet_*` family is
    /// registered eagerly (full `/metrics` shape before traffic). The
    /// per-platform engines stay registry-free on purpose — the
    /// `lddp_pool_*` families carry only a `worker` label, so several
    /// engines sharing one registry would fold into indistinguishable
    /// series.
    #[must_use]
    pub fn with_live(mut self, live: Arc<LiveRegistry>) -> Fleet {
        self.metrics.attach_live(live);
        self
    }

    /// Number of platforms in the fleet.
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// `true` only for the impossible empty fleet (kept for clippy's
    /// `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// The member at `idx`, in construction order.
    pub fn pool(&self, idx: usize) -> &PlatformPool {
        &self.pools[idx]
    }

    /// Index of the member named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.pools.iter().position(|p| p.spec.name == name)
    }

    /// The placement engine.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
    }

    /// The shared counters/histograms.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// Per-platform pool readiness, in member order.
    pub fn health(&self) -> Vec<PoolStatus> {
        self.pools
            .iter()
            .map(|p| {
                let dead = p.engine.pool_dead_workers();
                PoolStatus {
                    platform: p.spec.name.clone(),
                    ready: dead == 0,
                    dead_workers: dead,
                }
            })
            .collect()
    }

    /// JSON summary for `/stats`: per-platform placements, solves,
    /// degradations, backlog and pool readiness, plus the fleet-wide
    /// split counter.
    pub fn stats_json(&self) -> String {
        let backlogs = self.dispatcher.backlogs();
        let platforms: Vec<String> = self
            .pools
            .iter()
            .enumerate()
            .map(|(i, p)| {
                format!(
                    "{{\"name\":\"{}\",\"threads\":{},\"placements\":{},\"solves\":{},\
                     \"degraded\":{},\"backlog_s\":{:.6},\"dead_workers\":{}}}",
                    p.spec.name,
                    p.engine.threads(),
                    self.metrics.placements(i),
                    self.metrics.solves(i),
                    self.metrics.degraded(i),
                    backlogs[i],
                    p.engine.pool_dead_workers(),
                )
            })
            .collect();
        format!(
            "{{\"platforms\":[{}],\"multiplan_splits\":{}}}",
            platforms.join(","),
            self.metrics.splits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_wires_pools_dispatcher_and_metrics_together() {
        let fleet = Fleet::new(default_fleet());
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.dispatcher().num_platforms(), 3);
        assert_eq!(fleet.metrics().names().len(), 3);
        assert_eq!(fleet.index_of("hetero-low"), Some(1));
        assert_eq!(fleet.index_of("nope"), None);
        // Fresh engines: every pool is ready with zero dead workers.
        let health = fleet.health();
        assert!(health.iter().all(|h| h.ready && h.dead_workers == 0));
    }

    #[test]
    fn stats_json_reflects_recorded_traffic() {
        let fleet = Fleet::new(default_fleet());
        let p = fleet.dispatcher().place(&[0.5, 0.1, 0.9]);
        assert_eq!(p.platform, 1);
        fleet.dispatcher().begin(p.platform, p.predicted_s);
        fleet.metrics().on_place(p.platform, p.predicted_s);
        fleet
            .metrics()
            .on_finish(p.platform, p.predicted_s, 0.2, false);
        fleet.metrics().on_split(3);
        let json = fleet.stats_json();
        assert!(json.contains("\"name\":\"hetero-low\""), "{json}");
        assert!(json.contains("\"placements\":1"), "{json}");
        assert!(json.contains("\"multiplan_splits\":1"), "{json}");
        assert!(json.contains("\"backlog_s\":0.100000"), "{json}");
        let threads = format!("\"threads\":{}", ParallelEngine::host().threads());
        assert_eq!(json.matches(&threads).count(), 3, "{json}");
    }

    #[test]
    fn live_fleet_exposes_full_metric_shape() {
        let live = Arc::new(LiveRegistry::new());
        let _fleet = Fleet::new(default_fleet()).with_live(Arc::clone(&live));
        let text = live.to_prometheus();
        for name in ["hetero-high", "hetero-low", "cpu-only"] {
            assert!(
                text.contains(&format!(
                    "lddp_fleet_placements_total{{platform=\"{name}\"}} 0"
                )),
                "{text}"
            );
        }
        assert!(
            text.contains("lddp_fleet_multiplan_splits_total 0"),
            "{text}"
        );
    }
}
