//! Control-socket protocol tests against a live in-process daemon: a
//! real `UnixListener`, real connections, real worker threads behind
//! every reply.

use metronome_daemon::control::MAX_LINE;
use metronome_daemon::{ControlServer, DaemonConfig, MetricsServer, Request, ServiceEngine};
use metronome_telemetry::Json;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct TestDaemon {
    engine: Arc<ServiceEngine>,
    control: Option<ControlServer>,
    metrics: Option<MetricsServer>,
    socket: PathBuf,
}

impl TestDaemon {
    fn start(name: &str) -> TestDaemon {
        let socket = std::env::temp_dir().join(format!(
            "metronomed-test-{}-{name}.sock",
            std::process::id()
        ));
        let engine = Arc::new(ServiceEngine::new(DaemonConfig {
            n_queues: 2,
            ring_size: 256,
            ..DaemonConfig::default()
        }));
        let control = ControlServer::start(&socket, Arc::clone(&engine)).expect("bind socket");
        let metrics =
            MetricsServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind metrics");
        TestDaemon {
            engine,
            control: Some(control),
            metrics: Some(metrics),
            socket,
        }
    }

    fn connect(&self) -> Client {
        let stream = UnixStream::connect(&self.socket).expect("connect control socket");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client {
            reader,
            writer: stream,
        }
    }

    /// Shut the daemon down (via a fresh connection) and join both
    /// listeners so no threads outlive the test.
    fn finish(mut self) {
        if !self.engine.is_shutdown() {
            let mut c = self.connect();
            let reply = c.send(r#"{"cmd":"shutdown"}"#);
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        }
        self.control.take().unwrap().join();
        self.metrics.take().unwrap().join();
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn send(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        loop {
            match self.reader.read_line(&mut reply) {
                Ok(0) => panic!("daemon hung up mid-reply"),
                Ok(_) => break,
                // Partial-line timeout: keep reading, bytes are retained.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
        Json::parse(reply.trim()).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"))
    }
}

fn assert_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok reply, got {}",
        reply.render()
    );
}

fn assert_err(reply: &Json) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected error reply, got {}",
        reply.render()
    );
    assert!(
        reply.get("error").and_then(Json::as_str).is_some(),
        "error reply must carry a message: {}",
        reply.render()
    );
}

#[test]
fn malformed_requests_get_typed_errors_and_daemon_stays_up() {
    let daemon = TestDaemon::start("malformed");
    let mut c = daemon.connect();
    for bad in [
        "not json at all",
        r#"{"cmd":"warp-core"}"#,
        r#"{"no_cmd_field":1}"#,
        r#"{"cmd":"submit","rate_pps":"fast"}"#,
        r#"{"cmd":"submit","faults":[{"kind":"gamma-ray","at_ms":1,"duration_ms":1}]}"#,
        r#"{"cmd":"reconfigure"}"#,
        r#"[1,2,3]"#,
    ] {
        let reply = c.send(bad);
        assert_err(&reply);
    }
    // The daemon survived all of it — on the same connection and a new one.
    assert_eq!(
        c.send(r#"{"cmd":"ping"}"#)
            .get("reply")
            .and_then(Json::as_str),
        Some("pong")
    );
    let mut fresh = daemon.connect();
    assert_ok(&fresh.send(r#"{"cmd":"ping"}"#));
    daemon.finish();
}

impl Client {
    /// Write raw bytes (no newline appended).
    fn write_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
        self.writer.flush().unwrap();
    }
}

fn error_message(reply: &Json) -> String {
    assert_err(reply);
    reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn overlong_request_line_gets_a_typed_error_and_connection_stays_up() {
    let daemon = TestDaemon::start("overlong");
    let mut c = daemon.connect();
    // No newline yet: the reply must come once the cap is passed, not
    // when (if ever) the client ends the line.
    c.write_raw(&vec![b'x'; MAX_LINE + 1]);
    let mut reply = String::new();
    c.reader
        .read_line(&mut reply)
        .expect("reply before the newline");
    let reply = Json::parse(reply.trim()).expect("reply is JSON");
    assert!(
        error_message(&reply).contains("longer than"),
        "{}",
        reply.render()
    );
    // The rest of the line, however long, is discarded without a second
    // reply; the next request on the same connection is served.
    c.write_raw(&vec![b'y'; 3 * MAX_LINE]);
    c.write_raw(b"end of the overlong line\n");
    assert_eq!(
        c.send(r#"{"cmd":"ping"}"#)
            .get("reply")
            .and_then(Json::as_str),
        Some("pong"),
        "the discarded tail got a reply of its own"
    );
    // A line of exactly the cap is a request like any other.
    let ping = r#"{"cmd":"ping"}"#;
    let padded = format!("{ping}{}", " ".repeat(MAX_LINE - ping.len()));
    assert_eq!(
        c.send(&padded).get("reply").and_then(Json::as_str),
        Some("pong")
    );
    daemon.finish();
}

#[test]
fn non_utf8_request_gets_a_typed_error_and_connection_stays_up() {
    let daemon = TestDaemon::start("non-utf8");
    let mut c = daemon.connect();
    c.write_raw(b"{\"cmd\":\"pi\xffng\"}\n");
    let mut reply = String::new();
    c.reader
        .read_line(&mut reply)
        .expect("a reply, not a hang-up");
    let reply = Json::parse(reply.trim()).expect("reply is JSON");
    assert!(
        error_message(&reply).contains("UTF-8"),
        "{}",
        reply.render()
    );
    assert_eq!(
        c.send(r#"{"cmd":"ping"}"#)
            .get("reply")
            .and_then(Json::as_str),
        Some("pong")
    );
    daemon.finish();
}

/// A valid request that exercises the deeper parse paths (submit fields,
/// a fault list) once arbitrary bytes are spliced into it.
const REQUEST: &str = r#"{"cmd":"submit","name":"p","rate_pps":50000,"discipline":"metronome","m":2,"exec":"async","shards":2,"faults":[{"kind":"pool-starve","at_ms":1,"duration_ms":2,"fraction":0.5}]}"#;

proptest! {
    /// Whatever bytes arrive, decoded lossily, the parser returns a
    /// request or a non-empty error message; it never panics.
    #[test]
    fn request_parse_types_every_error_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        cut in 0usize..REQUEST.len(),
    ) {
        prop_assert!(Request::parse(REQUEST).is_ok(), "the template parses");
        let noise = String::from_utf8_lossy(&bytes);
        let (head, tail) = REQUEST.split_at(cut);
        for line in [
            noise.to_string(),
            format!("{head}{noise}"),
            format!("{head}{noise}{tail}"),
        ] {
            if let Err(e) = Request::parse(&line) {
                prop_assert!(!e.is_empty(), "empty error for {line:?}");
            }
        }
    }
}

#[test]
fn commands_needing_a_run_fail_cleanly_when_idle() {
    let daemon = TestDaemon::start("idle");
    let mut c = daemon.connect();
    assert_err(&c.send(r#"{"cmd":"reconfigure","rate_pps":1000}"#));
    // Drain with nothing running is an ok no-op (idempotent lifecycle).
    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("state").and_then(Json::as_str), Some("idle"));
    daemon.finish();
}

#[test]
fn reconfigure_under_load_keeps_counters_monotone() {
    let daemon = TestDaemon::start("reconf");
    let mut c = daemon.connect();
    assert_ok(&c.send(
        r#"{"cmd":"submit","name":"reconf-under-load","rate_pps":30000,"discipline":"metronome","m":2,"seed":11}"#,
    ));

    let stats = |c: &mut Client| {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert_ok(&s);
        (
            s.get("offered").and_then(Json::as_u64).unwrap(),
            s.get("processed").and_then(Json::as_u64).unwrap(),
            s.get("dropped").and_then(Json::as_u64).unwrap(),
        )
    };

    // Let traffic flow, then hammer reconfigures while sampling counters.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats(&mut c).1 == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut prev = stats(&mut c);
    assert!(prev.1 > 0, "no packets processed before reconfigure");

    for (i, cmd) in [
        r#"{"cmd":"reconfigure","rate_pps":60000}"#,
        r#"{"cmd":"reconfigure","discipline":"busy-poll"}"#,
        r#"{"cmd":"reconfigure","discipline":"metronome","m":3}"#,
        r#"{"cmd":"reconfigure","m":2}"#,
    ]
    .iter()
    .enumerate()
    {
        assert_ok(&c.send(cmd));
        std::thread::sleep(Duration::from_millis(120));
        let now = stats(&mut c);
        assert!(
            now.0 >= prev.0 && now.1 >= prev.1 && now.2 >= prev.2,
            "counters regressed after reconfigure #{i}: {prev:?} -> {now:?}"
        );
        prev = now;
    }
    // An invalid reconfigure is rejected and the pipeline keeps running.
    assert_err(&c.send(r#"{"cmd":"reconfigure","discipline":"metronome","m":1}"#)); // M < N
                                                                                    // Widening the generator on an SPSC port is rejected too — the port
                                                                                    // persists across re-arms, and SPSC rings admit one producer.
    assert_err(&c.send(r#"{"cmd":"reconfigure","gen_shards":2}"#));
    let now = stats(&mut c);
    assert!(
        now.1 >= prev.1,
        "counters regressed after rejected reconfigure"
    );

    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

#[test]
fn sharded_generation_conserves_and_reconfigures() {
    let daemon = TestDaemon::start("gen-shards");
    let mut c = daemon.connect();
    // Two producer shards need a multi-producer ring path.
    let submit = c.send(
        r#"{"cmd":"submit","name":"sharded","rate_pps":40000,"discipline":"metronome","m":2,"seed":3,"ring_path":"mpsc","gen_shards":2}"#,
    );
    assert_ok(&submit);
    assert_eq!(submit.get("gen_shards").and_then(Json::as_u64), Some(2));
    assert_eq!(submit.get("ring_path").and_then(Json::as_str), Some("mpsc"));

    // Both shards produce: wait until packets flow, then check stats.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert_ok(&s);
        assert_eq!(s.get("gen_shards").and_then(Json::as_u64), Some(2));
        if s.get("processed").and_then(Json::as_u64).unwrap_or(0) > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "no packets processed");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Narrow the generator set live; counters must stay monotone.
    let before = c
        .send(r#"{"cmd":"stats"}"#)
        .get("offered")
        .and_then(Json::as_u64)
        .unwrap();
    let reply = c.send(r#"{"cmd":"reconfigure","gen_shards":1}"#);
    assert_ok(&reply);
    assert_eq!(reply.get("gen_shards").and_then(Json::as_u64), Some(1));
    std::thread::sleep(Duration::from_millis(100));
    let s = c.send(r#"{"cmd":"stats"}"#);
    assert_eq!(s.get("gen_shards").and_then(Json::as_u64), Some(1));
    assert!(
        s.get("offered").and_then(Json::as_u64).unwrap() >= before,
        "offered regressed across a gen_shards reconfigure"
    );

    // Exact conservation and a whole pool after two generator
    // generations (2 shards, then 1) produced on shared MPSC rings.
    let drain = c.send(r#"{"cmd":"drain"}"#);
    assert_ok(&drain);
    assert_eq!(drain.get("conserved").and_then(Json::as_bool), Some(true));
    assert_eq!(
        drain.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

/// Plain HTTP/1.1 GET against the metrics listener; returns the raw
/// header block and the body.
fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    std::io::Read::read_to_string(&mut stream, &mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// One header's value out of a raw header block (names matched
/// case-insensitively, as HTTP requires).
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

#[test]
fn trace_dump_covers_workers_and_marks_reconfigures() {
    let daemon = TestDaemon::start("trace");
    let mut c = daemon.connect();
    let submit = c.send(
        r#"{"cmd":"submit","name":"traced","rate_pps":30000,"discipline":"metronome","m":2,"seed":5}"#,
    );
    assert_ok(&submit);
    assert_eq!(
        submit.get("trace").and_then(Json::as_bool),
        Some(true),
        "tracing defaults to on"
    );

    // Let traffic flow so the recorders have something to say.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = c.send(r#"{"cmd":"stats"}"#);
        assert!(
            s.get("uptime_ms").and_then(Json::as_u64).is_some(),
            "stats must carry uptime_ms: {}",
            s.render()
        );
        assert_eq!(
            s.get("exec_backend").and_then(Json::as_str),
            Some("threads"),
            "stats must carry exec_backend"
        );
        assert_eq!(
            s.get("shards").and_then(Json::as_u64),
            Some(0),
            "thread backend has no executor shards"
        );
        assert_eq!(
            s.get("gen_shards").and_then(Json::as_u64),
            Some(1),
            "stats must carry the generator shard count"
        );
        if s.get("processed").and_then(Json::as_u64).unwrap_or(0) > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "no packets processed");
        std::thread::sleep(Duration::from_millis(20));
    }

    // A reconfigure stamps a control-plane marker into the recorder.
    assert_ok(&c.send(r#"{"cmd":"reconfigure","rate_pps":60000}"#));

    let reply = c.send(r#"{"cmd":"trace"}"#);
    assert_ok(&reply);
    assert!(
        reply.get("events").and_then(Json::as_u64).unwrap_or(0) > 0,
        "recorder captured nothing: {}",
        reply.render()
    );
    let chrome = reply.get("chrome").expect("chrome dump rides inline");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        assert!(
            ev.get("ph").and_then(Json::as_str).is_some(),
            "event without ph"
        );
        assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
    }
    let summary = reply.get("summary").expect("summary rides inline");
    let workers = summary.get("workers").and_then(Json::as_arr).unwrap();
    let kind_total = |kind: &str| -> u64 {
        workers
            .iter()
            .filter_map(|w| {
                w.get("kinds")
                    .and_then(|k| k.get(kind))
                    .and_then(Json::as_u64)
            })
            .sum()
    };
    assert!(
        kind_total("burst") > 0,
        "processed packets but no burst events: {}",
        summary.render()
    );
    assert!(
        kind_total("reconfigure") >= 1,
        "reconfigure marker missing: {}",
        summary.render()
    );

    // Dump-to-file: the written artifact is the same loadable document.
    let path = std::env::temp_dir().join(format!("metronomed-trace-{}.json", std::process::id()));
    let reply = c.send(&format!(r#"{{"cmd":"trace","path":"{}"}}"#, path.display()));
    assert_ok(&reply);
    assert!(reply.get("bytes").and_then(Json::as_u64).unwrap_or(0) > 0);
    let written = std::fs::read_to_string(&path).expect("trace file written");
    let doc = Json::parse(&written).expect("trace file is valid JSON");
    assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some());
    let _ = std::fs::remove_file(&path);

    daemon.finish();
}

#[test]
fn trace_errors_cleanly_when_idle_or_disabled() {
    let daemon = TestDaemon::start("trace-off");
    let mut c = daemon.connect();
    // Idle: nothing to dump.
    assert_err(&c.send(r#"{"cmd":"trace"}"#));
    // Opted out at submit: a typed error, not an empty dump.
    let submit = c.send(r#"{"cmd":"submit","name":"untraced","rate_pps":5000,"trace":false}"#);
    assert_ok(&submit);
    assert_eq!(submit.get("trace").and_then(Json::as_bool), Some(false));
    assert_err(&c.send(r#"{"cmd":"trace"}"#));
    daemon.finish();
}

#[test]
fn http_pins_metrics_content_type_and_serves_healthz() {
    let daemon = TestDaemon::start("http");
    let mut c = daemon.connect();
    assert_ok(&c.send(r#"{"cmd":"submit","name":"scraped","rate_pps":20000}"#));
    std::thread::sleep(Duration::from_millis(100));
    let addr = daemon.metrics.as_ref().unwrap().addr();

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    let ctype = header(&head, "Content-Type").expect("Content-Type header");
    assert!(
        ctype.starts_with("text/plain; version=0.0.4"),
        "Prometheus content type must be pinned, got {ctype:?}"
    );
    assert_eq!(
        header(&head, "Content-Length").and_then(|v| v.parse::<usize>().ok()),
        Some(body.len()),
        "Content-Length must match the body exactly"
    );
    // Tracing is on by default, so the flight-recorder histograms are
    // exposed as real histogram series.
    for series in [
        "metronome_wake_latency_seconds_bucket",
        "metronome_oversleep_seconds_sum",
        "metronome_sched_delay_seconds_count",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }

    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    let health = Json::parse(body.trim()).expect("healthz is JSON");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("state").and_then(Json::as_str), Some("running"));
    assert!(health.get("uptime_ms").and_then(Json::as_u64).is_some());

    let (head, _) = http_get(addr, "/warp");
    assert!(head.starts_with("HTTP/1.1 404"), "bad status: {head}");
    daemon.finish();
}

#[test]
fn double_shutdown_is_idempotent() {
    let daemon = TestDaemon::start("double-shutdown");
    let mut c = daemon.connect();
    assert_ok(&c.send(r#"{"cmd":"submit","name":"brief","rate_pps":5000}"#));
    std::thread::sleep(Duration::from_millis(50));

    let first = c.send(r#"{"cmd":"shutdown"}"#);
    assert_ok(&first);
    assert_eq!(first.get("shutdown").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("conserved").and_then(Json::as_bool), Some(true));

    // Same connection, second shutdown: still a clean ok, not a panic,
    // not a hang, nothing double-freed (the drain is a no-op now).
    let second = c.send(r#"{"cmd":"shutdown"}"#);
    assert_ok(&second);
    assert_eq!(
        second.get("already_drained").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        second.get("pool_balanced").and_then(Json::as_bool),
        Some(true)
    );
    daemon.finish();
}

#[test]
fn submit_while_running_is_rejected() {
    let daemon = TestDaemon::start("double-submit");
    let mut c = daemon.connect();
    assert_ok(&c.send(r#"{"cmd":"submit","name":"first","rate_pps":5000}"#));
    assert_err(&c.send(r#"{"cmd":"submit","name":"second","rate_pps":5000}"#));
    assert_ok(&c.send(r#"{"cmd":"drain"}"#));
    // After a drain the pipeline is free again.
    assert_ok(&c.send(r#"{"cmd":"submit","name":"third","rate_pps":5000}"#));
    daemon.finish();
}
