//! Output checks: pinned report digests and the failure tally.
//!
//! `pinned.txt` holds, for the benchmark budget, each registered
//! sweep's report digest and the lane events its computed cells walk.
//! It is generated once from the per-config oracle
//! (`Harness::accuracy_table_sequential`) by `--bless`, never from the
//! code under measurement.

use std::fmt::Write as _;

/// The pinned file, compiled into the binary.
const PINNED: &str = include_str!("../pinned.txt");

/// FNV-1a over `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One sweep's pinned expectations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedSweep {
    /// Registered sweep name (`fig10`).
    pub name: String,
    /// [`digest`] of the report's `Display` bytes.
    pub digest: u64,
    /// Conditional events walked over every computed cell.
    pub lane_events: u64,
}

/// Every sweep's expectations at one budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pinned {
    /// Conditional-branch budget the digests were taken at.
    pub budget: u64,
    /// In registry order.
    pub sweeps: Vec<PinnedSweep>,
}

impl Pinned {
    /// The compiled-in expectations.
    pub fn load() -> Result<Pinned, String> {
        Pinned::parse(PINNED)
    }

    /// Parses `budget <n>` followed by `<name> <digest hex> <lane events>`
    /// lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Pinned, String> {
        let mut budget = None;
        let mut sweeps = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["budget", n] => budget = Some(n.parse().map_err(|e| format!("budget: {e}"))?),
                [name, hex, events] => sweeps.push(PinnedSweep {
                    name: (*name).to_owned(),
                    digest: u64::from_str_radix(hex, 16).map_err(|e| format!("{name}: {e}"))?,
                    lane_events: events.parse().map_err(|e| format!("{name}: {e}"))?,
                }),
                _ => return Err(format!("malformed pinned line {line:?}")),
            }
        }
        let budget = budget.ok_or("pinned file names no budget")?;
        Ok(Pinned { budget, sweeps })
    }

    /// Renders the file [`parse`](Self::parse) reads.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Report digests (FNV-1a of the rendered report) and lane events per\n\
             # registered sweep, from Harness::accuracy_table_sequential.\n\
             # Regenerate only with `--bless`, and say why in CHANGES.md.\n",
        );
        writeln!(out, "budget {}", self.budget).expect("writing to a String");
        for s in &self.sweeps {
            writeln!(out, "{} {:016x} {}", s.name, s.digest, s.lane_events)
                .expect("writing to a String");
        }
        out
    }

    /// Checks one rendered report against its pinned digest.
    pub fn check_report(&self, name: &str, rendered: &[u8]) -> Result<(), String> {
        let want = self
            .sweeps
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("sweep {name} has no pinned digest"))?
            .digest;
        let got = digest(rendered);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{name}: report digest {got:016x}, pinned {want:016x}"
            ))
        }
    }
}

/// Operations attempted and failed, with the first few failure
/// messages kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_file_parses_and_round_trips() {
        let pinned = Pinned::load().expect("compiled-in pinned file parses");
        assert_eq!(pinned.budget, crate::BUDGET);
        let names: Vec<&str> = tlat_sim::sweep_specs().iter().map(|s| s.name).collect();
        let pinned_names: Vec<&str> = pinned.sweeps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(pinned_names, names, "one pinned line per registered sweep");
        assert_eq!(Pinned::parse(&pinned.render()), Ok(pinned));
    }

    #[test]
    fn a_planted_byte_flip_counts_in_the_error_rate() {
        let report = b"Figure 0: a report\n  row  97.1 %\n".to_vec();
        let pinned = Pinned {
            budget: 1,
            sweeps: vec![PinnedSweep {
                name: "fig0".to_owned(),
                digest: digest(&report),
                lane_events: 1,
            }],
        };
        let mut tally = Tally::default();
        tally.record(pinned.check_report("fig0", &report));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        for at in [0, report.len() / 2, report.len() - 1] {
            let mut flipped = report.clone();
            flipped[at] ^= 0x01;
            tally.record(pinned.check_report("fig0", &flipped));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert_eq!(tally.error_rate(), 0.75);
        tally.record(pinned.check_report("fig99", &report));
        assert_eq!(
            tally.failed, 4,
            "an unpinned sweep is a failure, not a pass"
        );
    }

    #[test]
    fn malformed_pinned_lines_are_rejected() {
        assert!(Pinned::parse("fig5 00ff 12\n").is_err(), "no budget");
        assert!(Pinned::parse("budget 5\nfig5 zz 12\n").is_err());
        assert!(Pinned::parse("budget 5\nfig5 00ff\n").is_err());
    }
}
