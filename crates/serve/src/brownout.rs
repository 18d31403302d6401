//! The brownout ladder: graduated load shedding under sustained queue
//! pressure, with hysteresis.
//!
//! The same idiom as the engine's graceful-degradation ladder (PR 4),
//! lifted to the admission layer: instead of falling back across
//! execution tiers when a kernel faults, the server walks down a
//! ladder of service reductions when the queue stays hot — and walks
//! back up only after the pressure has *stayed* low, so the ladder
//! never flaps at the watermark.
//!
//! Levels (each includes everything above it):
//!
//! | level | action |
//! |-------|--------|
//! | 0     | normal service |
//! | 1     | shed new batch-class admissions (`503 brownout_shed`) |
//! | 2     | cap batch concurrency to one worker |
//!
//! A ladder configured with a `max_level` above 2 climbs further, but
//! its higher levels act as level 2: forcing the rolling memory mode
//! would save nothing, since every problem already rolls.
//!
//! Interactive traffic is never shed by the ladder at any level — the
//! queue's class budgets and the breaker remain its only admission
//! gates — so an interactive-only workload cannot observe the ladder
//! at all.
//!
//! [`Brownout::observe`] is a pure function of the observed fill
//! sequence (no wall clock, no randomness), so replaying the same
//! arrival sequence reproduces the same shed decisions — the property
//! the chaos campaign's seeded replays rely on.

/// Watermarks and dwell counts for the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Queue fill fraction at or above which an observation counts as
    /// pressure.
    pub high_watermark: f64,
    /// Queue fill fraction at or below which an observation counts as
    /// relief.
    pub low_watermark: f64,
    /// Consecutive pressure observations required to climb one level.
    pub engage_after: u32,
    /// Consecutive relief observations required to descend one level —
    /// the hysteresis dwell, deliberately longer than `engage_after`.
    pub disengage_after: u32,
    /// Highest rung of the ladder.
    pub max_level: u8,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            high_watermark: 0.75,
            low_watermark: 0.25,
            engage_after: 3,
            disengage_after: 5,
            max_level: 2,
        }
    }
}

/// One level transition reported by [`Brownout::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Level before the observation.
    pub from: u8,
    /// Level after the observation.
    pub to: u8,
}

/// The ladder's state machine. Not internally synchronized — the
/// server guards it with a mutex and publishes the level through an
/// atomic for lock-free reads on the hot path.
#[derive(Debug)]
pub struct Brownout {
    config: BrownoutConfig,
    level: u8,
    hot_streak: u32,
    cool_streak: u32,
}

impl Brownout {
    /// A ladder at level 0.
    pub fn new(config: BrownoutConfig) -> Brownout {
        Brownout {
            config,
            level: 0,
            hot_streak: 0,
            cool_streak: 0,
        }
    }

    /// Current level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Feeds one queue-fill observation (`[0, 1]`) to the ladder and
    /// returns the transition, if this observation caused one.
    ///
    /// Climbing requires `engage_after` *consecutive* observations at
    /// or above the high watermark; descending requires
    /// `disengage_after` consecutive observations at or below the low
    /// watermark. Observations in the dead band between the watermarks
    /// reset both streaks — sustained ambiguity holds the ladder where
    /// it is.
    pub fn observe(&mut self, fill: f64) -> Option<Transition> {
        if fill >= self.config.high_watermark {
            self.cool_streak = 0;
            self.hot_streak += 1;
            if self.hot_streak >= self.config.engage_after && self.level < self.config.max_level {
                self.hot_streak = 0;
                let from = self.level;
                self.level += 1;
                return Some(Transition {
                    from,
                    to: self.level,
                });
            }
        } else if fill <= self.config.low_watermark {
            self.hot_streak = 0;
            self.cool_streak += 1;
            if self.cool_streak >= self.config.disengage_after && self.level > 0 {
                self.cool_streak = 0;
                let from = self.level;
                self.level -= 1;
                return Some(Transition {
                    from,
                    to: self.level,
                });
            }
        } else {
            self.hot_streak = 0;
            self.cool_streak = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Brownout {
        Brownout::new(BrownoutConfig {
            high_watermark: 0.75,
            low_watermark: 0.25,
            engage_after: 3,
            disengage_after: 5,
            max_level: 3,
        })
    }

    #[test]
    fn engages_only_after_sustained_pressure() {
        let mut b = ladder();
        assert_eq!(b.observe(0.9), None);
        assert_eq!(b.observe(0.9), None);
        // A single dip resets the streak.
        assert_eq!(b.observe(0.1), None);
        assert_eq!(b.observe(0.9), None);
        assert_eq!(b.observe(0.9), None);
        assert_eq!(b.observe(0.9), Some(Transition { from: 0, to: 1 }));
        assert_eq!(b.level(), 1);
    }

    #[test]
    fn climbs_to_max_and_no_further() {
        let mut b = ladder();
        let mut transitions = Vec::new();
        for _ in 0..20 {
            if let Some(t) = b.observe(1.0) {
                transitions.push((t.from, t.to));
            }
        }
        assert_eq!(transitions, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(b.level(), 3);
    }

    #[test]
    fn disengages_with_hysteresis() {
        let mut b = ladder();
        for _ in 0..3 {
            b.observe(1.0);
        }
        assert_eq!(b.level(), 1);
        // Four relief observations: not enough to descend.
        for _ in 0..4 {
            assert_eq!(b.observe(0.0), None);
        }
        // A pressure blip resets the cool streak.
        b.observe(0.9);
        for _ in 0..4 {
            assert_eq!(b.observe(0.0), None);
        }
        assert_eq!(b.observe(0.0), Some(Transition { from: 1, to: 0 }));
        assert_eq!(b.level(), 0);
        // Already at 0: further relief does nothing.
        for _ in 0..10 {
            assert_eq!(b.observe(0.0), None);
        }
    }

    #[test]
    fn dead_band_holds_the_level() {
        let mut b = ladder();
        for _ in 0..6 {
            b.observe(1.0);
        }
        assert_eq!(b.level(), 2);
        // Fill between the watermarks: neither streak advances.
        for _ in 0..50 {
            assert_eq!(b.observe(0.5), None);
        }
        assert_eq!(b.level(), 2);
    }

    #[test]
    fn same_sequence_replays_to_same_decisions() {
        // Determinism: the ladder is a pure function of the observed
        // sequence, so a replay makes identical shed decisions.
        let fills: Vec<f64> = (0..200)
            .map(|i| {
                let phase = (i * 7919) % 100;
                phase as f64 / 100.0
            })
            .collect();
        let run = |fills: &[f64]| {
            let mut b = ladder();
            fills
                .iter()
                .map(|f| {
                    let t = b.observe(*f);
                    (b.level(), t.map(|t| (t.from, t.to)))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&fills), run(&fills));
    }
}
