//! Fleet membership: named platform presets with their own host worker
//! pools.
//!
//! A fleet member names a modelled [`Platform`] (the §IV cost-model
//! triple the dispatcher scores against); the host pool that executes
//! placed batches is sized from the host, not from the model. The three
//! defaults mirror the serving story the paper's evaluation implies:
//! the two published testbeds plus a CPU-only box that exists because
//! real fleets are never uniformly accelerated.

use hetero_sim::platform::{cpu_only, hetero_high, hetero_low, Platform};

/// One member of the serving fleet: a named modelled platform.
#[derive(Debug, Clone)]
pub struct FleetPlatform {
    /// Stable lower-case name used in request routing, metric labels
    /// and `/stats` ("hetero-high", "hetero-low", "cpu-only").
    pub name: String,
    /// The modelled CPU + GPU + link triple the dispatcher costs
    /// batches against.
    pub platform: Platform,
}

impl FleetPlatform {
    /// A member named `name` over `platform`.
    pub fn new(name: impl Into<String>, platform: Platform) -> FleetPlatform {
        FleetPlatform {
            name: name.into(),
            platform,
        }
    }
}

/// The standard three-preset fleet: Hetero-High, Hetero-Low and a
/// CPU-only host.
pub fn default_fleet() -> Vec<FleetPlatform> {
    vec![
        FleetPlatform::new("hetero-high", hetero_high()),
        FleetPlatform::new("hetero-low", hetero_low()),
        FleetPlatform::new("cpu-only", cpu_only()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fleet_has_three_distinct_members() {
        let fleet = default_fleet();
        assert_eq!(fleet.len(), 3);
        let names: Vec<&str> = fleet.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["hetero-high", "hetero-low", "cpu-only"]);
        // The members model genuinely different hardware.
        assert_ne!(fleet[0].platform.gpu.smx, fleet[1].platform.gpu.smx);
        assert_ne!(fleet[1].platform.gpu.smx, fleet[2].platform.gpu.smx);
    }
}
