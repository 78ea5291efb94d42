//! `repro monitor` — the observability plane, scraped end to end.
//!
//! Brings up the whole PR 7 stack against a tiny live workload and
//! *gates* on the acceptance criteria:
//!
//! 1. **Valid exposition** — `/metrics` parses under the in-tree
//!    Prometheus checker ([`kgoa_obs::check_exposition`]) and carries
//!    the SLO series.
//! 2. **Slow-query capture** — with a zero latency objective every
//!    governed expansion breaches, so the session auto-profiles and
//!    the captured flamegraph must come back over
//!    `/profilez/<trace-id>`.
//! 3. **Series + snapshot** — `/series` serves `kgoa-obs/v3` windows
//!    produced by the background sampler; `/snapshot` serves
//!    `kgoa-obs/v1`.
//! 4. **Watchdog flip** (`--features fault-inject`) — a deterministic
//!    merge-retry storm (armed `MergeCrashPoint::PrePublish` per
//!    attempt) must flip `/healthz` from `healthy` to `degraded` with
//!    a `merge_retry_storm` alert.
//!
//! All HTTP goes through a deliberately tiny in-tree client over
//! `std::net` — the same zero-dependency discipline as the listener.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use kgoa_core::{
    start_monitoring, EpochConfig, EpochManager, MonitorConfig, SupervisorConfig,
};
use kgoa_datagen::{generate, KgConfig};
#[cfg(feature = "fault-inject")]
use kgoa_engine::ExecBudget;
use kgoa_explore::{Expansion, Session};
#[cfg(feature = "fault-inject")]
use kgoa_index::UpdateBatch;
use kgoa_obs::{
    check_exposition, Json, ObsServer, RecorderConfig, SloPolicy, WatchdogConfig,
};
use kgoa_rdf::Triple;

use crate::workload::BenchConfig;

/// One blocking GET against the scrape listener; returns status + body.
fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: kgoa\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| format!("no header/body split: {text:?}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head:?}"))?;
    Ok((status, body.to_string()))
}

/// Drive a deterministic merge-retry storm: each round arms a one-shot
/// pre-publish crash, appends a batch, and runs the merge synchronously
/// — the first attempt panics (one retry counted), the retry succeeds.
#[cfg(feature = "fault-inject")]
fn merge_retry_storm(mgr: &std::sync::Arc<EpochManager>, churn: &[Triple], rounds: usize) {
    let budget = ExecBudget::unlimited();
    for round in 0..rounds {
        mgr.arm_crash_point(kgoa_core::MergeCrashPoint::PrePublish);
        let batch = if round % 2 == 0 {
            UpdateBatch { insert: churn.to_vec(), delete: Vec::new() }
        } else {
            UpdateBatch { insert: Vec::new(), delete: churn.to_vec() }
        };
        mgr.append(&batch, &budget).expect("storm append");
        mgr.merge_now();
    }
}

/// `repro monitor`: returns the report and whether every gate passed.
pub fn monitor_bench(cfg: &BenchConfig) -> (String, bool) {
    let mut report = String::new();
    writeln!(report, "## Monitor — observability plane scraped end to end\n").unwrap();
    let mut all_ok = true;
    let mut gate = |report: &mut String, name: &str, ok: bool, detail: String| {
        all_ok &= ok;
        writeln!(report, "{:<28} {:<4} {}", name, if ok { "ok" } else { "FAIL" }, detail)
            .unwrap();
        ok
    };

    kgoa_obs::reset();
    kgoa_obs::set_enabled(true);

    // Watchdog thresholds for the drill: a wide retry horizon so the
    // storm's windows stay in scope however the sampler interleaves,
    // and a generous heartbeat so a loaded CI runner can't flake the
    // verdict to unhealthy mid-scrape.
    let watchdog = WatchdogConfig {
        merge_retry_limit: 3,
        merge_retry_windows: 64,
        heartbeat_gap: Duration::from_secs(10),
        ..WatchdogConfig::default()
    };
    let mut monitor = start_monitoring(MonitorConfig {
        recorder: RecorderConfig { tick: Duration::from_millis(25), capacity: 256 },
        watchdog: watchdog.clone(),
    });
    let mut server = ObsServer::start_with("127.0.0.1:0", watchdog).expect("bind listener");
    let addr = server.local_addr();
    writeln!(report, "listener: http://{addr}\n").unwrap();

    // A zero objective makes every governed expansion a breach, so the
    // session auto-profiles each one and the slow-query log fills up.
    kgoa_obs::slo::arm(SloPolicy {
        objective: Duration::ZERO,
        overrides: Vec::new(),
        capture: true,
    });

    // Tiny live workload: epoch-managed graph, pre-interned churn set.
    let graph = generate(&KgConfig::dbpedia_like(cfg.scale));
    let mut dict = graph.dict().clone();
    let vocab = graph.vocab();
    let original = graph.triples().to_vec();
    let class = dict
        .lookup_iri("http://kgoa.dev/class/C0")
        .expect("generated graphs always have class C0");
    let churn: Vec<Triple> = (0..16)
        .map(|i| {
            let e = dict.intern_iri(format!("http://kgoa.dev/monitor/e{i}"));
            Triple::new(e, vocab.rdf_type, class)
        })
        .collect();
    let graph = kgoa_rdf::Graph::from_sorted_parts(dict, original, vocab);
    let ig = kgoa_index::IndexedGraph::build(graph);
    // A high merge threshold keeps `merge_now` the only merger, so the
    // fault-inject storm is deterministic.
    let mgr = EpochManager::new(
        ig,
        EpochConfig { merge_threshold: 1 << 20, shed_threshold: 1 << 20, ..EpochConfig::default() },
    );

    let mut session = Session::root_pinned(&mgr);
    let sup = SupervisorConfig::default();
    for exp in [Expansion::OutProperty, Expansion::InProperty, Expansion::OutProperty] {
        let chart = session.expand_governed(exp, &sup).expect("governed expansion");
        drop(chart);
    }
    let captured = kgoa_obs::slo::captured_trace_ids();
    gate(
        &mut report,
        "slo capture",
        !captured.is_empty(),
        format!("{} breaching profiles captured", captured.len()),
    );

    // Wait for the background sampler to close at least two windows.
    let deadline = Instant::now() + Duration::from_secs(10);
    let rec = loop {
        if let Some(rec) = kgoa_obs::Recorder::global() {
            if rec.windows().len() >= 2 {
                break rec;
            }
        }
        assert!(Instant::now() < deadline, "sampler produced no windows");
        std::thread::sleep(Duration::from_millis(10));
    };

    // Gate 1: /metrics is valid exposition and carries the SLO series.
    match http_get(addr, "/metrics") {
        Ok((status, body)) => {
            let parsed = check_exposition(&body);
            let detail = match &parsed {
                Ok(s) => format!(
                    "HTTP {status}, {} families / {} samples / {} histograms",
                    s.families, s.samples, s.histograms
                ),
                Err(e) => format!("HTTP {status}, invalid: {e}"),
            };
            gate(
                &mut report,
                "/metrics exposition",
                status == 200 && parsed.is_ok() && !body.is_empty(),
                detail,
            );
            gate(
                &mut report,
                "/metrics slo series",
                body.contains("kgoa_slo_breaches_total{engine=\"session\"")
                    && body.contains("kgoa_obs_recorder_ticks_total"),
                "session breaches + recorder ticks exported".into(),
            );
        }
        Err(e) => {
            gate(&mut report, "/metrics exposition", false, e);
        }
    }

    // Gate 2: /snapshot (v1) and /series (v3) parse with their schemas.
    let schema_of = |path: &str| -> Result<(u16, String, usize), String> {
        let (status, body) = http_get(addr, path)?;
        let j = Json::parse(&body).map_err(|e| format!("{path}: bad JSON ({e:?})"))?;
        let schema = j
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: no schema field"))?
            .to_string();
        let windows = j.get("windows").and_then(Json::as_arr).map_or(0, |w| w.len());
        Ok((status, schema, windows))
    };
    match schema_of("/snapshot") {
        Ok((status, schema, _)) => {
            gate(
                &mut report,
                "/snapshot schema",
                status == 200 && schema == kgoa_obs::SCHEMA,
                format!("HTTP {status}, {schema}"),
            );
        }
        Err(e) => {
            gate(&mut report, "/snapshot schema", false, e);
        }
    }
    match schema_of("/series") {
        Ok((status, schema, windows)) => {
            gate(
                &mut report,
                "/series windows",
                status == 200 && schema == kgoa_obs::SERIES_SCHEMA && windows >= 2,
                format!("HTTP {status}, {schema}, {windows} windows"),
            );
        }
        Err(e) => {
            gate(&mut report, "/series windows", false, e);
        }
    }

    // Gate 3: the captured slow-query profile comes back by trace id.
    if let Some(trace) = captured.first() {
        match http_get(addr, &format!("/profilez/{trace}")) {
            Ok((status, body)) => {
                let round_trip = Json::parse(&body)
                    .ok()
                    .and_then(|j| j.get("trace_id").and_then(Json::as_f64))
                    == Some(*trace as f64);
                gate(
                    &mut report,
                    "/profilez retrieval",
                    status == 200 && round_trip,
                    format!("HTTP {status}, trace {trace}"),
                );
            }
            Err(e) => {
                gate(&mut report, "/profilez retrieval", false, e);
            }
        }
    }
    let miss = http_get(addr, "/profilez/18446744073709551614");
    gate(
        &mut report,
        "/profilez unknown id",
        matches!(&miss, Ok((404, _))),
        format!("{miss:?}"),
    );

    // Gate 4: /healthz starts healthy...
    match http_get(addr, "/healthz") {
        Ok((status, body)) => {
            let healthy = body.contains("\"status\": \"healthy\"");
            gate(&mut report, "/healthz baseline", status == 200 && healthy, format!(
                "HTTP {status}, {}",
                body.lines().find(|l| l.contains("status")).unwrap_or("?").trim()
            ));
        }
        Err(e) => {
            gate(&mut report, "/healthz baseline", false, e);
        }
    }

    // ...and flips to degraded under a deterministic merge-retry storm.
    #[cfg(feature = "fault-inject")]
    {
        let retried_before = kgoa_obs::metrics::MERGE_RETRIED.get();
        merge_retry_storm(&mgr, &churn, 6);
        let retried = kgoa_obs::metrics::MERGE_RETRIED.get() - retried_before;
        // Close a window right now so the retries are in watchdog scope
        // regardless of the background sampler's phase.
        rec.sample_now();
        match http_get(addr, "/healthz") {
            Ok((status, body)) => {
                let degraded = body.contains("\"status\": \"degraded\"")
                    && body.contains("merge_retry_storm");
                gate(
                    &mut report,
                    "watchdog storm flip",
                    status == 200 && degraded && retried >= 3,
                    format!("HTTP {status}, {retried} injected retries"),
                );
            }
            Err(e) => {
                gate(&mut report, "watchdog storm flip", false, e);
            }
        }
        mgr.wait_merged();
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = (&churn, &rec);
        writeln!(
            report,
            "{:<28} {:<4} needs --features fault-inject",
            "watchdog storm flip", "skip"
        )
        .unwrap();
    }

    // SLO roll-up for the report.
    writeln!(report, "\nslo keys:").unwrap();
    for k in kgoa_obs::slo::summary() {
        writeln!(
            report,
            "  {}/{}: {} recorded, {} breaches, p50 {}us p95 {}us p99 {}us",
            k.engine, k.rung, k.count, k.breaches, k.p50_us, k.p95_us, k.p99_us
        )
        .unwrap();
    }

    kgoa_obs::slo::disarm();
    server.stop();
    monitor.stop();
    kgoa_obs::set_enabled(false);
    writeln!(
        report,
        "\n{}",
        if all_ok { "monitor gate PASSED" } else { "monitor gate FAILED" }
    )
    .unwrap();
    (report, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_datagen::Scale;

    #[test]
    fn monitor_bench_passes_on_tiny_scale() {
        let _guard = kgoa_obs::metrics::test_lock();
        kgoa_obs::events::set_stderr_level(None);
        let cfg = BenchConfig { scale: Scale::Tiny, ..BenchConfig::default() };
        let (report, ok) = monitor_bench(&cfg);
        kgoa_obs::events::set_stderr_level(Some(kgoa_obs::Level::Warn));
        assert!(ok, "monitor gates must pass:\n{report}");
        assert!(report.contains("/metrics exposition"));
    }
}
