//! Hypervisor steal, and wall-clock corrected for it.
//!
//! On a shared virtual machine the hypervisor runs other tenants on this
//! machine's CPUs in bursts of seconds; while it does, every timing here
//! stretches by the same share. The kernel counts that time per CPU as
//! `steal` in `/proc/stat` (in clock ticks of 10 ms). A CPU-bound stretch
//! of the benchmark's work loses, on average over the CPUs, the stolen
//! time divided by the CPU count, so that is what [`Watch::stop`] takes
//! off the wall-clock.

use std::time::Instant;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Seconds stolen so far, summed over CPUs, and the CPU count; `None`
/// where `/proc/stat` has no steal column.
fn stolen_so_far() -> Option<(f64, usize)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    parse_stat(&text)
}

fn parse_stat(text: &str) -> Option<(f64, usize)> {
    let total = text.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = total.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = text
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    Some((steal / TICKS_PER_S, cpus.max(1)))
}

/// A stretch of wall-clock with the steal inside it.
pub struct Watch {
    start: Instant,
    stolen: Option<(f64, usize)>,
}

impl Watch {
    /// Start a stretch.
    pub fn start() -> Self {
        Self {
            stolen: stolen_so_far(),
            start: Instant::now(),
        }
    }

    /// Wall-clock seconds since [`Watch::start`] and the share of them not
    /// stolen: `1 - stolen / (cpus * wall)`, between 0.5 and 1. Without a
    /// steal counter the share is 1.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        let share = match (self.stolen, stolen_so_far()) {
            (Some((a, cpus)), Some((b, _))) if wall > 0.0 => {
                (1.0 - (b - a) / (cpus as f64 * wall)).clamp(0.5, 1.0)
            }
            _ => 1.0,
        };
        (wall, share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_steal_column_and_counts_cpus() {
        let stat = "cpu  186528 0 14905 373396 514 0 2818 22566 0 0\n\
                    cpu0 96047 0 7365 184050 254 0 1422 11291 0 0\n\
                    cpu1 90480 0 7539 189345 259 0 1395 11275 0 0\n\
                    intr 1 2 3\n";
        assert_eq!(parse_stat(stat), Some((225.66, 2)));
        assert_eq!(parse_stat("intr 1\n"), None);
    }

    #[test]
    fn the_unstolen_share_is_a_fraction() {
        let w = Watch::start();
        let (wall, share) = w.stop();
        assert!(wall >= 0.0);
        assert!((0.5..=1.0).contains(&share));
    }
}
