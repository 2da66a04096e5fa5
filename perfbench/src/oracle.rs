//! The correctness oracle: every run is compared with the map-engine
//! reference (`Switch::new` on the same programs and inputs).
//!
//! A packet is wrong when its output packet, frame or departure differs
//! from the reference at the same position, or is missing; a run that
//! emits extra outputs counts those too. Final state, drop counters and
//! the transmit count must match exactly, or the whole run fails.

use banzai::{DropCounters, SchedDeparture};
use domino_ir::{Packet, StateStore};

/// What a run emitted, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Outputs {
    /// Packets (packet-born runs).
    Packets(Vec<Packet>),
    /// Deparsed frames (byte-born runs).
    Frames(Vec<Vec<u8>>),
    /// Departures of a scheduling run.
    Departures(Vec<SchedDeparture>),
}

impl Outputs {
    /// Number of emitted items.
    pub fn len(&self) -> usize {
        match self {
            Outputs::Packets(v) => v.len(),
            Outputs::Frames(v) => v.len(),
            Outputs::Departures(v) => v.len(),
        }
    }
}

/// The switch's books after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Books {
    /// Per-reason drop counters.
    pub drops: DropCounters,
    /// Packets transmitted.
    pub transmitted: u64,
    /// Exported ingress state.
    pub ingress: StateStore,
    /// Exported egress state.
    pub egress: StateStore,
}

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Packets (or frames) offered.
    pub offered: u64,
    /// Emitted items.
    pub outputs: Outputs,
    /// Final counters and state.
    pub books: Books,
}

/// The oracle's judgement of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Offered packets checked.
    pub offered: u64,
    /// Offered packets whose output is wrong or missing.
    pub wrong: u64,
    /// Why the whole run failed, if it did.
    pub fatal: Option<String>,
}

#[cfg(test)]
impl Verdict {
    /// The share of offered packets that are wrong.
    pub fn error_frac(&self) -> f64 {
        self.wrong as f64 / self.offered.max(1) as f64
    }

    /// No wrong packet and no failed books.
    pub fn ok(&self) -> bool {
        self.wrong == 0 && self.fatal.is_none()
    }
}

/// Positions where `got` and `want` differ, plus missing and extra items.
fn mismatches<T: PartialEq>(got: &[T], want: &[T]) -> u64 {
    let common = got.len().min(want.len());
    let differ = got[..common]
        .iter()
        .zip(&want[..common])
        .filter(|(g, w)| g != w)
        .count();
    (differ + got.len().abs_diff(want.len())) as u64
}

/// Judges `got` against the reference `want`.
pub fn judge(got: &Outcome, want: &Outcome) -> Verdict {
    let mut fatal = Vec::new();
    if got.offered != want.offered {
        fatal.push(format!(
            "offered {} packets, reference offered {}",
            got.offered, want.offered
        ));
    }
    let wrong = match (&got.outputs, &want.outputs) {
        (Outputs::Packets(g), Outputs::Packets(w)) => mismatches(g, w),
        (Outputs::Frames(g), Outputs::Frames(w)) => mismatches(g, w),
        (Outputs::Departures(g), Outputs::Departures(w)) => mismatches(g, w),
        _ => {
            fatal.push("output kinds differ".to_string());
            want.outputs.len() as u64
        }
    };
    let (g, w) = (&got.books, &want.books);
    if g.drops != w.drops {
        fatal.push(format!(
            "drop counters {:?} != reference {:?}",
            g.drops, w.drops
        ));
    }
    if g.transmitted != w.transmitted {
        fatal.push(format!(
            "transmitted {} != reference {}",
            g.transmitted, w.transmitted
        ));
    }
    if g.ingress != w.ingress {
        fatal.push("ingress state differs from the reference".to_string());
    }
    if g.egress != w.egress {
        fatal.push("egress state differs from the reference".to_string());
    }
    Verdict {
        offered: got.offered,
        wrong: wrong.min(got.offered.max(want.offered)),
        fatal: (!fatal.is_empty()).then(|| fatal.join("; ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Clock;
    use crate::workloads::{Inputs, Plain, Workload};

    fn small_run(w: Workload) -> (Outcome, Outcome) {
        let (progs, _) = w.setup_sample();
        let inputs = Inputs::generate(w, 2_000, 7);
        let reference = w.reference(&progs, &inputs);
        let run = w.drive(&Plain, &mut Plain, &progs, &inputs, Clock::start());
        (run.outcome, reference)
    }

    #[test]
    fn every_workload_matches_its_reference() {
        for w in Workload::ALL {
            let (run, reference) = small_run(w);
            let v = judge(&run, &reference);
            assert!(v.ok(), "{}: {v:?}", w.name());
            assert_eq!(v.error_frac(), 0.0);
        }
    }

    #[test]
    fn one_perturbed_output_field_is_an_error() {
        for w in Workload::ALL {
            let (mut run, reference) = small_run(w);
            match &mut run.outputs {
                Outputs::Packets(v) => {
                    let old = v[10].get_or_zero("next_hop");
                    v[10].set("next_hop", old + 1);
                }
                Outputs::Frames(v) => {
                    let last = v[10].len() - 1;
                    v[10][last] ^= 1;
                }
                Outputs::Departures(v) => {
                    let old = v[10].pkt.get_or_zero("sum");
                    v[10].pkt.set("sum", old + 1);
                }
            }
            let v = judge(&run, &reference);
            assert_eq!(v.wrong, 1, "{}", w.name());
            assert!(v.error_frac() > 0.0);
            assert!(v.fatal.is_none(), "an output error alone is not fatal");
        }
    }

    #[test]
    fn a_missing_output_is_an_error() {
        let (mut run, reference) = small_run(Workload::Figure1);
        if let Outputs::Packets(v) = &mut run.outputs {
            v.pop();
        }
        assert_eq!(judge(&run, &reference).wrong, 1);
    }

    #[test]
    fn a_state_mismatch_fails_the_run() {
        let (mut run, reference) = small_run(Workload::Figure1);
        let old = run.books.ingress.read_array("saved_hop", 0);
        run.books.ingress.write_array("saved_hop", 0, old + 1);
        let v = judge(&run, &reference);
        assert_eq!(v.wrong, 0);
        assert!(!v.ok());
        assert!(v.fatal.unwrap().contains("ingress state"));
    }

    #[test]
    fn a_drop_counter_mismatch_fails_the_run() {
        let (run, mut reference) = small_run(Workload::Pifo);
        reference.books.drops = DropCounters::new();
        assert!(judge(&run, &reference)
            .fatal
            .unwrap()
            .contains("drop counters"));
    }
}
