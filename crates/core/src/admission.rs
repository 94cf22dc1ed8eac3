//! Replayable admission-request traces and the streaming driver: the
//! trace and journal formats, the trace model and its generator from
//! [`vc2m_alloc::codec`], and journaled replay and recovery from
//! [`vc2m_alloc::recovery`].

pub use vc2m_alloc::codec::{
    fleet_items, generate, materialize, AdmissionTrace, TraceItem, TraceRequest, TraceSpec,
    TRACE_HEADER,
};
pub use vc2m_alloc::recovery::{recover_engine as recover, replay};

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_alloc::{
        AdmissionConfig, AdmissionEngine, AdmissionFleet, AdmissionRequest, DecisionJournal,
        FleetConfig,
    };
    use vc2m_model::{Platform, VmSpec};
    use vc2m_rng::{DetRng, Rng};

    #[test]
    fn request_render_matches_float_formatting_over_the_parsed_range() {
        // Every milli value the parser accepts (0.001 ..= 1000.000).
        for milli in 1..=1_000_000u32 {
            let expected = format!("{:.3}", milli as f64 / 1000.0);
            let arrive = TraceRequest::Arrive {
                vm: 7,
                utilization_milli: milli,
                seed: 42,
            };
            assert_eq!(arrive.render(), format!("arrive 7 {expected} 42"));
            let mode = TraceRequest::Mode {
                vm: 7,
                utilization_milli: milli,
                seed: 42,
            };
            assert_eq!(mode.render(), format!("mode 7 {expected} 42"));
        }
    }

    #[test]
    fn generate_is_deterministic_and_sized() {
        let spec = TraceSpec::new(120, 9);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 120);
    }

    #[test]
    fn generated_trace_exercises_every_request_kind() {
        let trace = generate(&TraceSpec::new(300, 4));
        let mut arrivals = 0;
        let mut departures = 0;
        let mut modes = 0;
        let mut batches = 0;
        for item in trace.items() {
            match item {
                TraceItem::Batch(b) => {
                    batches += 1;
                    arrivals += b.len();
                }
                TraceItem::Single(TraceRequest::Arrive { .. }) => arrivals += 1,
                TraceItem::Single(TraceRequest::Depart { .. }) => departures += 1,
                TraceItem::Single(TraceRequest::Mode { .. }) => modes += 1,
            }
        }
        assert!(arrivals > 0 && departures > 0 && modes > 0 && batches > 0);
    }

    #[test]
    fn journal_round_trips_and_recovers_the_exact_engine() {
        // Through the facade's `replay` and `recover`.
        let (platform, config) = (Platform::platform_a(), AdmissionConfig::new(42));
        let trace = generate(&TraceSpec::new(60, 13));
        let mut engine = AdmissionEngine::new(platform, config);
        let journal = replay(&mut engine, &trace);
        assert_eq!(journal.decisions(), trace.len());
        let parsed = DecisionJournal::parse(&journal.render()).unwrap();
        assert_eq!(parsed, journal);
        let recovered = recover(platform, config, &parsed).unwrap();
        assert_eq!(recovered.log_text(), engine.log_text());
        assert_eq!(recovered.stats(), engine.stats());
        assert_eq!(recovered.allocation(), engine.allocation());
    }

    #[test]
    fn render_parse_round_trips() {
        let trace = generate(&TraceSpec::new(150, 33));
        let text = trace.render();
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render(), text);
        assert!(text.starts_with(TRACE_HEADER));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(AdmissionTrace::parse("arrive").unwrap_err().contains("missing"));
        assert!(AdmissionTrace::parse("arrive x 0.1 3")
            .unwrap_err()
            .contains("malformed"));
        assert!(AdmissionTrace::parse("frob 1").unwrap_err().contains("unknown"));
        assert!(AdmissionTrace::parse("batch 2\narrive 1 0.1 3")
            .unwrap_err()
            .contains("truncated"));
        assert!(AdmissionTrace::parse("batch 1\ndepart 1")
            .unwrap_err()
            .contains("only arrivals"));
        // An empty batch is rejected with its line number: it would
        // decide nothing yet still count as an engine batch.
        let err =
            AdmissionTrace::parse("arrive 1 0.100 3\nbatch 0\narrive 2 0.100 4").unwrap_err();
        assert!(err.contains("line 2") && err.contains("at least 1"), "{err}");
        assert!(AdmissionTrace::parse("batch 1 2\narrive 1 0.1 3")
            .unwrap_err()
            .contains("trailing"));
        assert!(AdmissionTrace::parse("arrive 1 0.1 3 9")
            .unwrap_err()
            .contains("trailing"));
        // Non-finite utilizations are rejected by name, with the line
        // number, for both arrivals and mode changes.
        let err = AdmissionTrace::parse("arrive 1 NaN 3").unwrap_err();
        assert!(err.contains("line 1") && err.contains("non-finite"), "{err}");
        let err = AdmissionTrace::parse("depart 2\nmode 1 inf 3").unwrap_err();
        assert!(err.contains("line 2") && err.contains("non-finite"), "{err}");
        let err = AdmissionTrace::parse("arrive 1 -inf 3").unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        // A utilization that rounds to zero milli-units is rejected
        // with its line number; the least accepted one is 0.0005.
        let err = AdmissionTrace::parse("arrive 1 0.000 5").unwrap_err();
        assert!(err.contains("line 1") && err.contains("rounds to zero"), "{err}");
        let err = AdmissionTrace::parse("depart 2\nmode 1 0.0004 5").unwrap_err();
        assert!(err.contains("line 2") && err.contains("rounds to zero"), "{err}");
        assert!(TraceRequest::parse_line("arrive 1 0 5").is_err());
        assert_eq!(
            AdmissionTrace::parse("arrive 1 0.0005 5").unwrap().items(),
            [TraceItem::Single(TraceRequest::Arrive {
                vm: 1,
                utilization_milli: 1,
                seed: 5,
            })]
        );
        // Host-dimension directive errors carry line numbers too.
        let err = AdmissionTrace::parse("hosts 0").unwrap_err();
        assert!(err.contains("line 1") && err.contains("at least 1"), "{err}");
        assert!(AdmissionTrace::parse("hosts x")
            .unwrap_err()
            .contains("malformed host count"));
        assert!(AdmissionTrace::parse("hosts")
            .unwrap_err()
            .contains("missing host count"));
        assert!(AdmissionTrace::parse("hosts 2 3")
            .unwrap_err()
            .contains("trailing"));
        assert!(AdmissionTrace::parse("hosts 2\nhosts 3")
            .unwrap_err()
            .contains("duplicate"));
        let err = AdmissionTrace::parse("depart 1\nhosts 2").unwrap_err();
        assert!(err.contains("line 2") && err.contains("precede"), "{err}");
    }

    #[test]
    fn hosts_directive_round_trips_and_defaults_to_one() {
        let plain = AdmissionTrace::parse("arrive 1 0.100 3").unwrap();
        assert_eq!(plain.hosts(), 1);
        assert!(!plain.render().contains("hosts"));
        let fleet = generate(&TraceSpec::rejection_heavy(40, 7, 4));
        assert_eq!(fleet.hosts(), 4);
        let text = fleet.render();
        assert!(text.contains("\nhosts 4\n"), "{}", &text[..80]);
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, fleet);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn retries_re_emit_live_arrival_lines_verbatim() {
        let trace = generate(&TraceSpec::rejection_heavy(200, 11, 2));
        assert_eq!(trace.len(), 200);
        let mut first_arrival: std::collections::HashMap<usize, TraceRequest> =
            std::collections::HashMap::new();
        let mut retries = 0usize;
        for item in trace.items() {
            if let TraceItem::Single(request @ TraceRequest::Arrive { vm, .. }) = item {
                match first_arrival.get(vm) {
                    Some(original) => {
                        assert_eq!(request, original, "retry must be verbatim");
                        retries += 1;
                    }
                    None => {
                        first_arrival.insert(*vm, *request);
                    }
                }
            }
        }
        assert!(retries > 50, "only {retries} retries in 200 requests");
        // Determinism: same spec, same bytes.
        assert_eq!(
            generate(&TraceSpec::rejection_heavy(200, 11, 2)).render(),
            trace.render()
        );
    }

    #[test]
    fn fleet_replay_matches_engine_on_one_host() {
        let trace = generate(&TraceSpec::new(60, 17));
        let platform = Platform::platform_a();
        let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(42));
        replay(&mut engine, &trace);
        let mut fleet = AdmissionFleet::new(platform, FleetConfig::new(1, 42));
        fleet.replay(&fleet_items(&trace, platform.resources()), 1).unwrap();
        assert_eq!(fleet.log_text(), engine.log_text());
        assert_eq!(&fleet.aggregate_stats(), engine.stats());
    }

    #[test]
    fn materialized_vms_have_disjoint_task_ids() {
        let space = Platform::platform_a().resources();
        let vm = |vm| -> VmSpec {
            match materialize(&format!("arrive {vm} 0.200 7"), space) {
                Ok(AdmissionRequest::Arrival(spec)) => spec,
                other => panic!("{other:?}"),
            }
        };
        let (a, b) = (vm(1), vm(2));
        let ids_a: Vec<usize> = a.tasks().iter().map(|t| t.id().0).collect();
        let ids_b: Vec<usize> = b.tasks().iter().map(|t| t.id().0).collect();
        assert!(ids_a.iter().all(|i| !ids_b.contains(i)));
    }

    #[test]
    fn replay_produces_one_decision_per_request() {
        let trace = generate(&TraceSpec::new(80, 21));
        let mut engine =
            AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
        replay(&mut engine, &trace);
        assert_eq!(engine.decisions().len(), trace.len());
        engine.allocation().verify(engine.platform()).unwrap();
    }

    #[test]
    fn crit_directive_round_trips_and_marks_hi_vms() {
        let trace = AdmissionTrace::parse(
            "hosts 2\ncrit 1 4\narrive 1 0.100 3\narrive 2 0.100 4\narrive 4 0.100 5\n",
        )
        .unwrap();
        assert_eq!(trace.hi_vms(), &[1, 4]);
        let text = trace.render();
        assert!(text.contains("\ncrit 1 4\n"), "{text}");
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render(), text);
        // No crit directive ⇒ everyone LO, and none rendered — the
        // historical trace format is unchanged.
        let plain = AdmissionTrace::parse("arrive 1 0.100 3").unwrap();
        assert!(plain.hi_vms().is_empty());
        assert!(!plain.render().contains("crit"));
    }

    #[test]
    fn crit_directive_rejections_carry_line_numbers() {
        let err = AdmissionTrace::parse("crit 1\ncrit 2").unwrap_err();
        assert!(err.contains("line 2") && err.contains("duplicate"), "{err}");
        let err = AdmissionTrace::parse("arrive 1 0.100 3\ncrit 1").unwrap_err();
        assert!(err.contains("line 2") && err.contains("precede"), "{err}");
        let err = AdmissionTrace::parse("crit 1 x").unwrap_err();
        assert!(err.contains("line 1") && err.contains("malformed vm id"), "{err}");
        let err = AdmissionTrace::parse("crit 3 2").unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = AdmissionTrace::parse("crit 2 2").unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = AdmissionTrace::parse("crit").unwrap_err();
        assert!(err.contains("names no vm"), "{err}");
    }

    #[test]
    fn hi_fraction_marks_vms_deterministically() {
        let spec = TraceSpec::new(120, 9).with_hi_fraction(0.4);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert!(!a.hi_vms().is_empty(), "0.4 of 120 requests draws some HI");
        assert!(
            a.hi_vms().windows(2).all(|w| w[0] < w[1]),
            "hi set is strictly increasing"
        );
        assert!(a.render().contains("\ncrit "), "{}", &a.render()[..120]);
        // The hi draw is gated on the fraction, so a zero-fraction
        // spec consumes no extra randomness: byte-identical to the
        // plain spec (this is what keeps committed traces stable).
        assert_eq!(
            generate(&TraceSpec::new(120, 9).with_hi_fraction(0.0)).render(),
            generate(&TraceSpec::new(120, 9)).render(),
        );
    }

    #[test]
    fn zero_utilization_requests_are_refused_not_materialized() {
        let space = Platform::platform_a().resources();
        let valid = TraceRequest::Arrive {
            vm: 1,
            utilization_milli: 100,
            seed: 3,
        };
        assert!(matches!(
            materialize(&valid.render(), space),
            Ok(AdmissionRequest::Arrival(_))
        ));
        let zero_arrival = TraceRequest::Arrive {
            vm: 2,
            utilization_milli: 0,
            seed: 5,
        };
        let zero_mode = TraceRequest::Mode {
            vm: 1,
            utilization_milli: 0,
            seed: 5,
        };
        for zero in [zero_arrival, zero_mode] {
            let err = materialize(&zero.render(), space).expect_err("zero materializes");
            assert_eq!(err, "utilization 0 rounds to zero (the least is 0.0005)");
            let err = AdmissionTrace::from_items(vec![
                TraceItem::Single(valid),
                TraceItem::Batch(vec![valid, zero]),
            ])
            .expect_err("a trace holding a zero-utilization request builds");
            assert!(err.starts_with("item 2: ") && err.contains("rounds to zero"), "{err}");
        }
        // A generator range starting at 0 draws from 1 up, so its trace
        // replays.
        let mut spec = TraceSpec::new(40, 3);
        spec.utilization_milli = (0, 2);
        let trace = generate(&spec);
        let mut engine = AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
        assert_eq!(replay(&mut engine, &trace).decisions(), trace.len());
    }

    /// A random request over a few VM ids; arrivals and mode changes
    /// ask for a utilization in the accepted range or past either end.
    fn random_request(rng: &mut DetRng) -> TraceRequest {
        let vm = rng.gen_range(1usize..=6);
        let utilization_milli = match rng.gen_range(0u32..10) {
            0 => 0,
            1 => 1_000_001,
            2 => u32::MAX,
            _ => rng.gen_range(1u32..=300),
        };
        let seed = rng.gen_range(0u64..1000);
        match rng.gen_range(0u32..4) {
            0 => TraceRequest::Depart { vm },
            1 => TraceRequest::Mode {
                vm,
                utilization_milli,
                seed,
            },
            _ => TraceRequest::Arrive {
                vm,
                utilization_milli,
                seed,
            },
        }
    }

    /// The message of a parse or build error, without its line or item.
    fn message(error: &str) -> &str {
        error.split_once(": ").map_or(error, |(_, message)| message)
    }

    #[test]
    fn from_items_refuses_exactly_what_parse_refuses() {
        vc2m_rng::cases::check(256, |rng| {
            let items: Vec<TraceItem> = (0..rng.gen_range(1usize..=6))
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        let arity = rng.gen_range(0usize..=3);
                        TraceItem::Batch((0..arity).map(|_| random_request(rng)).collect())
                    } else {
                        TraceItem::Single(random_request(rng))
                    }
                })
                .collect();
            // The unchecked items' text, written as `render` writes it.
            let mut text = format!("{TRACE_HEADER}\n");
            for item in &items {
                match item {
                    TraceItem::Single(r) => text += &format!("{}\n", r.render()),
                    TraceItem::Batch(rs) => {
                        text += &format!("batch {}\n", rs.len());
                        rs.iter().for_each(|r| text += &format!("{}\n", r.render()));
                    }
                }
            }
            match (AdmissionTrace::from_items(items), AdmissionTrace::parse(&text)) {
                (Ok(trace), Ok(parsed)) => {
                    assert_eq!(parsed, trace, "{text}");
                    assert_eq!(parsed.render(), text);
                    let mut engine =
                        AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
                    let journal = replay(&mut engine, &trace);
                    let reparsed = DecisionJournal::parse(&journal.render())
                        .unwrap_or_else(|e| panic!("{e}\n{text}"));
                    assert_eq!(reparsed, journal, "{text}");
                }
                (Err(built), Err(parsed)) => {
                    assert!(built.starts_with("item "), "{built}");
                    assert_eq!(message(&built), message(&parsed), "{text}");
                }
                (built, parsed) => panic!("from_items {built:?}, parse {parsed:?}\n{text}"),
            }
        });
    }

    /// The directive builders refuse what the parser refuses, with its
    /// message: `with_hosts` a zero host count, `with_hi_vms` ids out
    /// of strictly increasing order.
    #[test]
    fn with_hi_vms_refuses_what_parse_refuses() {
        vc2m_rng::cases::check(256, |rng| {
            let hosts = rng.gen_range(0usize..=3);
            let ids: Vec<usize> = (0..rng.gen_range(0usize..=4))
                .map(|_| rng.gen_range(1usize..=8))
                .collect();
            let trace = AdmissionTrace::parse("arrive 1 0.100 3").unwrap();
            match trace.with_hosts(hosts).and_then(|t| t.with_hi_vms(ids.clone())) {
                Ok(trace) => {
                    assert_eq!(trace.hosts(), hosts);
                    assert_eq!(trace.hi_vms(), ids);
                    assert_eq!(AdmissionTrace::parse(&trace.render()).unwrap(), trace);
                }
                Err(error) => {
                    let ids: Vec<String> = ids.iter().map(usize::to_string).collect();
                    let text = format!("hosts {hosts}\ncrit {}", ids.join(" "));
                    let parsed = AdmissionTrace::parse(&text).unwrap_err();
                    assert_eq!(error, message(&parsed), "{text}");
                }
            }
        });
    }

    #[test]
    fn recovery_refuses_a_zero_utilization_request() {
        let mut journal = DecisionJournal::new();
        journal.append_single("arrive 1 0.000 5".to_string(), "#00000 arrive".to_string());
        let err = recover(Platform::platform_a(), AdmissionConfig::new(42), &journal)
            .expect_err("a zero-utilization request cannot be recovered");
        assert!(err.to_string().contains("rounds to zero"), "{err}");
    }
}
