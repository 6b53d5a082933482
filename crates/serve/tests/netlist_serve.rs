//! Serve-side behaviour of `submit_netlist`: content-addressed dynamic
//! families, memo hits across repeated submits (including alternate
//! spellings of the same circuit), typed refusals for hostile input,
//! the dynamic-capacity bound, and the evict regression — eviction must
//! unhost the dynamic family, not just drop stored solutions.

use std::time::Duration;

use rfsim_serve::service::{JobStatus, ServeConfig, SimService};
use rfsim_serve::spec::{BackendKind, Priority};
use rfsim_serve::ServeError;

const WAIT: Duration = Duration::from_secs(120);

fn small_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..Default::default()
    }
}

/// A small MPDE lowpass netlist — the canonical happy path.
const LOWPASS: &str = "V V1 in gnd drive\n\
                       R R1 in out 1k\n\
                       C C1 out gnd 160p\n\
                       .sweep amplitudes=0.5,1 spacings=10k\n\
                       .analysis mpde f1=1M n1=8 n2=4\n";

/// The same circuit spelled differently: `0` for ground, an unsuffixed
/// resistance, extra whitespace and comments. Must canonicalise to the
/// same text, and therefore the same content-addressed family. (Values
/// must stay numerically bit-equal — `0.16n` and `160p` differ in the
/// last ulp and would be a different circuit.)
const LOWPASS_RESPELLED: &str = "* an RC lowpass, spelled with the 0 ground alias\n\
                                 V   V1  in 0   drive\n\
                                 R   R1  in out 1000\n\
                                 C   C1  out 0  160p\n\
                                 .sweep amplitudes=0.5,1 spacings=10k\n\
                                 .analysis mpde f1=1M n1=8 n2=4\n";

fn submit(service: &SimService, text: &str) -> rfsim_serve::service::NetlistSubmission {
    service
        .submit_netlist(text, Priority::Normal, None)
        .expect("netlist submit")
}

#[test]
fn repeated_netlist_submit_is_one_solve_plus_one_bit_identical_memo_hit() {
    let service = SimService::start(small_config());
    let first = submit(&service, LOWPASS);
    assert!(first.registered, "first sighting registers the family");
    assert!(
        first.family.starts_with("netlist:"),
        "dynamic families are content-addressed, got '{}'",
        first.family
    );
    let solved = service.wait(first.job_id, WAIT).expect("fresh solve");

    let second = submit(&service, LOWPASS);
    assert!(!second.registered, "identical text reuses the family");
    assert_eq!(second.family, first.family);
    match service.poll(second.job_id).expect("poll") {
        JobStatus::Done { result, memo_hit } => {
            assert!(memo_hit, "second submit must be a memo hit");
            assert_eq!(result.digest(), solved.digest());
            for (a, b) in result.points.iter().zip(&solved.points) {
                assert_eq!(a.samples.len(), b.samples.len());
                for (x, y) in a.samples.iter().zip(&b.samples) {
                    assert_eq!(x.to_bits(), y.to_bits(), "memo hit must be bit-identical");
                }
            }
        }
        other => panic!("expected an instant memo hit, got {other:?}"),
    }
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 1, "one solve for two submits");
    assert_eq!(q.memo_hits, 1, "second submit served from the store");
}

#[test]
fn alternate_spellings_canonicalise_onto_one_family_and_memo_hit() {
    let service = SimService::start(small_config());
    let first = submit(&service, LOWPASS);
    let solved = service.wait(first.job_id, WAIT).expect("solve");

    // Ground alias `0`, unsuffixed values, comments, ragged whitespace:
    // the canonical form is identical, so the hash — and the store
    // entry — are shared.
    let respelled = submit(&service, LOWPASS_RESPELLED);
    assert_eq!(
        respelled.family, first.family,
        "same canonical text, same family"
    );
    assert!(!respelled.registered);
    let replayed = service.wait(respelled.job_id, WAIT).expect("replay");
    assert_eq!(replayed.digest(), solved.digest());
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!((q.solves, q.memo_hits), (1, 1));
}

#[test]
fn hostile_netlists_are_typed_refusals_and_the_service_survives() {
    let service = SimService::start(small_config());
    let hostile = [
        "",                                               // no devices, no analysis
        "garbage that is not a netlist",                  // unknown keyword
        "R R1 a\n.analysis dcop\n",                       // arity error
        "R R1 a gnd nan\n.analysis dcop\n",               // non-numeric value
        "R R1 a gnd 1k\nR R1 a gnd 2k\n.analysis dcop\n", // duplicate name
        "\u{0}\u{1}\u{2}{[}]:,\"\\",                      // byte soup
        "V V1 in gnd drive\nR R1 in out 1k\n.analysis mpde f1=1M n1=8 n2=4\n\
         .analysis hb2 f1=1M n1=8 n2=4\n", // two directives
    ];
    // Resource-exhaustion shapes: a node count past the parser's bound
    // and a single line past the line-length bound must both be typed
    // refusals (cheaply — the limits exist so hostile input can't make
    // the daemon allocate proportionally).
    let huge_nodes: String = (0..10_000)
        .map(|i| format!("R R{i} n{i} m{i} 1k\n"))
        .chain([".analysis dcop\n".to_string()])
        .collect();
    let long_line = format!("R R1 a b {}\n.analysis dcop\n", "9".repeat(8192));
    let hostile = hostile
        .into_iter()
        .map(str::to_string)
        .chain([huge_nodes, long_line]);
    for text in hostile {
        let text = text.as_str();
        match service.submit_netlist(text, Priority::Normal, None) {
            Err(ServeError::Netlist(e)) => {
                // Typed and Display-able; line is 1-based for statement
                // errors, 0 for whole-file validation.
                assert!(!e.to_string().is_empty());
            }
            Err(other) => panic!("expected a netlist refusal for {text:?}, got {other}"),
            Ok(sub) => panic!("hostile netlist {text:?} was accepted as {sub:?}"),
        }
    }

    // Valid netlists whose analysis is not servable over the wire are a
    // spec refusal, not a parse error — and still never a panic.
    let offline = [
        "V V1 in gnd dc 1\nR R1 in gnd 1k\n.analysis dcop\n",
        "V V1 in gnd sine amp=1 freq=1M phase=0 offset=0\nR R1 in gnd 1k\n\
         .analysis transient tstop=1u dt=10n\n",
    ];
    for text in offline {
        match service.submit_netlist(text, Priority::Normal, None) {
            Err(ServeError::InvalidSpec(msg)) => {
                assert!(msg.contains("not servable"), "got '{msg}'");
            }
            other => panic!("expected InvalidSpec for {text:?}, got {other:?}"),
        }
    }

    // The scheduler is alive and the registry uncorrupted: a good
    // submit still solves.
    let good = submit(&service, LOWPASS);
    service.wait(good.job_id, WAIT).expect("service survived");
}

#[test]
fn evict_unhosts_the_dynamic_family_and_retires_its_keys() {
    let service = SimService::start(small_config());
    let first = submit(&service, LOWPASS);
    let solved = service.wait(first.job_id, WAIT).expect("solve");
    assert_eq!(service.dynamic_families().len(), 1);

    // Evict by name: stored solutions drop and the dynamic family is
    // unhosted, taking its epoch with it.
    let dropped = service.evict(Some(&first.family));
    assert!(dropped > 0, "the solved grid was stored and must drop");
    assert!(service.dynamic_families().is_empty(), "family unhosted");

    // Resubmitting the same text re-registers from scratch and pays a
    // fresh solve — which reproduces the original bytes exactly.
    let again = submit(&service, LOWPASS);
    assert!(again.registered, "evicted family re-registers");
    assert_eq!(again.family, first.family, "content address is stable");
    let resolved = service.wait(again.job_id, WAIT).expect("fresh solve");
    assert_eq!(resolved.digest(), solved.digest());
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 2, "no memo hit across an eviction");
    assert_eq!(q.memo_hits, 0);
}

#[test]
fn dynamic_capacity_is_bounded_and_evict_frees_slots() {
    // Paused scheduler: submits queue without solving, so walking the
    // whole capacity is cheap (parse + register only).
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    let cap = SimService::MAX_DYNAMIC_FAMILIES;
    let mut first_family = None;
    for i in 0..cap {
        // Vary one resistor so every netlist is a distinct topology hash.
        let text = format!(
            "V V1 in gnd drive\nR R1 in out {}\nC C1 out gnd 160p\n\
             .sweep amplitudes=1 spacings=10k\n.analysis mpde f1=1M n1=8 n2=4\n",
            1000 + i
        );
        let sub = submit(&service, &text);
        assert!(sub.registered);
        first_family.get_or_insert(sub.family);
    }
    assert_eq!(service.dynamic_families().len(), cap);

    let overflow = "V V1 in gnd drive\nR R1 in out 999k\nC C1 out gnd 160p\n\
                    .sweep amplitudes=1 spacings=10k\n.analysis mpde f1=1M n1=8 n2=4\n";
    match service.submit_netlist(overflow, Priority::Normal, None) {
        Err(ServeError::InvalidSpec(msg)) => {
            assert!(msg.contains("capacity"), "got '{msg}'");
        }
        other => panic!("expected a capacity refusal, got {other:?}"),
    }

    // Evicting one hosted family frees exactly one slot.
    service.evict(first_family.as_deref());
    assert_eq!(service.dynamic_families().len(), cap - 1);
    let sub = submit(&service, overflow);
    assert!(sub.registered, "freed slot accepts a new topology");
}
