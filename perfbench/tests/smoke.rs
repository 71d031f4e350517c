//! Tiny-size smoke runs of every workload against the metrics
//! `BENCHMARK.json` declares, and the correctness checker itself.

use std::time::Instant;

use lrm_compress::Shape;
use lrm_datasets::SizeClass;
use lrm_perfbench::check::{self, Failure, Tally};
use lrm_perfbench::{declarations, run, Opts, Workload};
use lrm_server::{ClientError, ServerErrorKind};

fn tiny(trace: bool) -> Opts {
    Opts {
        seed: 7,
        seconds: 0.4,
        trace,
        size: SizeClass::Tiny,
        started: Instant::now(),
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = run(workload, &tiny(false)).expect("run");
        assert_eq!(
            outcome.tally.failed, 0,
            "{workload:?}: {:?}",
            outcome.tally.first
        );
        assert!(outcome.tally.attempted > 0);
        for d in &declarations().end_to_end {
            let name = &d.name;
            let m = outcome
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .unwrap_or_else(|| panic!("{workload:?} did not emit {name}"));
            assert_eq!(m.unit, d.unit, "{workload:?} {name}");
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload:?} {name} = {}",
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for workload in Workload::ALL {
        let outcome = run(workload, &tiny(true)).expect("run");
        assert_eq!(
            outcome.tally.failed, 0,
            "{workload:?}: {:?}",
            outcome.tally.first
        );
        let value = |name: &str| {
            let m = outcome.metrics.iter().find(|m| m.name == name);
            let v = m
                .unwrap_or_else(|| panic!("{workload:?} did not emit {name}"))
                .value;
            assert!(v.is_finite(), "{workload:?} {name} = {v}");
            v
        };
        for d in &declarations().per_layer {
            value(&d.name);
        }
        assert!(value("trace.spans") > 0.0);
        match workload {
            Workload::Identify => assert!(value("linalg.calls") > 0.0),
            Workload::Codec => {
                assert_eq!(value("linalg.calls"), 0.0);
                assert!(value("wavelet.fit_s") > 0.0);
            }
            Workload::Serve => assert!(value("server.rtt_p50_ms.ping") > 0.0),
        }
        // Every recorded span has a sane interval and self time.
        let selfs = outcome.tracer.self_times();
        for (span, own) in outcome.tracer.spans().iter().zip(selfs) {
            assert!(span.end >= span.start, "{}", span.name);
            assert!(own >= -1e-9 && own <= span.secs() + 1e-9, "{}", span.name);
        }
    }
}

fn field() -> (Vec<f64>, Shape) {
    let shape = Shape::d3(8, 8, 4);
    let data = (0..shape.len()).map(|i| (i as f64 * 0.1).sin()).collect();
    (data, shape)
}

#[test]
fn checker_counts_each_kind_of_failure() {
    let (data, shape) = field();
    let mut tally = Tally::default();

    tally.record("exact", check::reconstruction(&data, shape, &data, shape));
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    let mut corrupted = data.clone();
    for v in corrupted.iter_mut().step_by(3) {
        *v += 1.0;
    }
    let verdict = check::reconstruction(&data, shape, &corrupted, shape);
    assert!(matches!(verdict, Err(Failure::Nrmse(_))), "{verdict:?}");
    tally.record("corrupted", verdict);

    let mut non_finite = data.clone();
    non_finite[5] = f64::NAN;
    let verdict = check::reconstruction(&data, shape, &non_finite, shape);
    assert_eq!(verdict, Err(Failure::NonFinite));
    tally.record("non-finite", verdict);

    let verdict = check::reconstruction(&data, shape, &data[1..], Shape::d1(data.len() - 1));
    assert_eq!(verdict, Err(Failure::Shape));
    tally.record("shape", verdict);

    let busy = ClientError::Server {
        kind: ServerErrorKind::Busy,
        message: "queue full".into(),
    };
    let failure = check::client_error(busy).expect("a Busy frame fails one operation");
    tally.record("busy", Err(failure));

    tally.record("repeat", check::repeat(b"abc", b"abd"));

    assert_eq!((tally.attempted, tally.failed), (6, 5));
    assert!((tally.failed_frac() - 5.0 / 6.0).abs() < 1e-12);
    for label in [
        "nrmse",
        "non_finite",
        "shape",
        "server_busy",
        "artifact_changed",
    ] {
        assert_eq!(tally.count(label), 1, "{label}");
    }
}

#[test]
fn near_constant_fields_are_normalized_by_magnitude() {
    // Sedov_pres's ambient region: values 1e-5 spanning 3e-21. A
    // relative error of 1e-9 passes; one of 10% does not.
    let data: Vec<f64> = (0..64).map(|i| 1e-5 + (i % 2) as f64 * 3e-21).collect();
    let shape = Shape::d1(64);
    let close: Vec<f64> = data.iter().map(|v| v * (1.0 + 1e-9)).collect();
    assert_eq!(check::reconstruction(&data, shape, &close, shape), Ok(()));
    let far: Vec<f64> = data.iter().map(|v| v * 1.1).collect();
    assert!(check::reconstruction(&data, shape, &far, shape).is_err());
}
