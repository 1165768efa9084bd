//! End-to-end exercises of the gateway reactor: line-protocol answers
//! identical to in-process execution, control words, transport
//! byte-identity, admission control, streaming, deadlines, and
//! malformed-input resilience.

use cqfd_gateway::http as ghttp;
use cqfd_gateway::{json, Gateway, GatewayConfig, Quota};
use cqfd_service::{parse_request, Pool, PoolConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connects a line-protocol client and consumes the version greeting.
fn line_client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut greeting = String::new();
    reader.read_line(&mut greeting).expect("greeting");
    assert_eq!(greeting.trim(), "cqfd-service v1");
    (reader, stream)
}

/// Reads one full job reply: the result line plus any framed payload
/// lines it announces (`cert_lines=` / `trace_lines=` / `lint_lines=`).
fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("result line");
    let mut extra = 0usize;
    for key in ["cert_lines=", "trace_lines=", "lint_lines="] {
        if let Some(tok) = line.split_whitespace().find_map(|t| t.strip_prefix(key)) {
            extra += tok.parse::<usize>().expect("payload count");
        }
    }
    let mut out = line;
    for _ in 0..extra {
        let mut payload = String::new();
        reader.read_line(&mut payload).expect("payload line");
        out.push_str(&payload);
    }
    out
}

/// Masks the per-run fields (`job=` ids, wall-clock `elapsed_ms=`) so two
/// answers can be compared byte-for-byte on everything that matters.
fn normalize(text: &str) -> String {
    text.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|tok| match tok.split_once('=') {
                    Some(("job" | "elapsed_ms", _)) => {
                        format!("{}=X", tok.split_once('=').unwrap().0)
                    }
                    _ => tok.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A blocking HTTP/1.1 client over the gateway's own codec, with
/// keep-alive (leftover bytes stay buffered for the next response).
struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    fn connect(addr: SocketAddr) -> HttpClient {
        let stream = TcpStream::connect(addr).expect("connect http");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        HttpClient {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, req: &ghttp::Request) {
        self.stream
            .write_all(&ghttp::render_request(req, false))
            .expect("write request");
    }

    fn read_response(&mut self) -> ghttp::Response {
        let limits = ghttp::Limits {
            max_head_bytes: 64 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
        };
        loop {
            match ghttp::parse_response(&self.buf, &limits) {
                ghttp::Parse::Complete { value, consumed } => {
                    self.buf.drain(..consumed);
                    return value;
                }
                ghttp::Parse::Partial => {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = self.stream.read(&mut chunk).expect("read response");
                    assert!(n > 0, "connection closed mid-response");
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                ghttp::Parse::Bad { status, reason } => {
                    panic!("server sent an unparsable response ({status}): {reason}")
                }
            }
        }
    }

    fn request(&mut self, req: &ghttp::Request) -> ghttp::Response {
        self.send(req);
        self.read_response()
    }
}

fn post_jobs(body: &str, headers: &[(&str, &str)]) -> ghttp::Request {
    ghttp::Request {
        method: "POST".into(),
        target: "/v1/jobs".into(),
        headers: headers
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: body.as_bytes().to_vec(),
    }
}

fn get(target: &str) -> ghttp::Request {
    ghttp::Request {
        method: "GET".into(),
        target: target.into(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

fn one_worker() -> GatewayConfig {
    GatewayConfig::default().with_pool(PoolConfig::default().with_workers(1))
}

#[test]
fn gateway_needs_at_least_one_listener() {
    assert!(Gateway::bind(None, None, GatewayConfig::default()).is_err());
}

#[test]
fn line_protocol_answers_like_in_process_execution() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), None, one_worker())
        .expect("bind gateway")
        .spawn()
        .expect("spawn gateway");
    let pool = Pool::new(PoolConfig::default().with_workers(1));
    let in_process = |request: &str| match parse_request(request) {
        Ok(Some(req)) => pool.submit_blocking(req.job).wait().render_protocol(),
        Ok(None) => panic!("`{request}` is not a job line"),
        Err(e) => format!("error: {e}"),
    };

    let (mut rd, mut wr) = line_client(gw.line_addr().expect("line addr"));
    writeln!(wr, "v1").unwrap();
    assert_eq!(read_reply(&mut rd), "ok v1\n");
    for request in [
        "creep worm=short cert=1",
        "determine instance=projection",
        "frobnicate x=1",
        // Routing metadata reaches admission, never the job.
        "creep worm=short tenant=acme priority=batch",
    ] {
        writeln!(wr, "{request}").unwrap();
        assert_eq!(
            normalize(&read_reply(&mut rd)),
            normalize(&in_process(request)),
            "diverged on `{request}`"
        );
    }
    // Blank lines and comments get no reply at all.
    writeln!(wr, "\n# a comment\nquit").unwrap();
    assert_eq!(read_reply(&mut rd), "bye\n");
    pool.shutdown();
    gw.shutdown();
}

#[test]
fn metrics_word_scrapes_between_jobs() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), None, one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    // Run a job first so the chase/hom/pool families exist.
    writeln!(wr, "determine instance=projection").unwrap();
    assert!(read_reply(&mut rd).contains("verdict=not-determined"));

    writeln!(wr, "metrics").unwrap();
    let text = read_framed(&mut rd, "metrics");
    for family in [
        "cqfd_chase_run_seconds",
        "cqfd_hom_search_nodes_total",
        "cqfd_pool_jobs_total",
        "cqfd_pool_workers",
        "cqfd_gateway_connections",
    ] {
        assert!(text.contains(family), "scrape missing {family}:\n{text}");
    }
    // The connection still serves jobs after a scrape.
    writeln!(wr, "creep worm=short").unwrap();
    assert!(read_reply(&mut rd).contains("verdict=halted"));
    gw.shutdown();
}

#[test]
fn unsupported_version_is_refused_and_closed() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), None, one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    writeln!(wr, "v2").unwrap();
    assert_eq!(
        read_reply(&mut rd),
        "error: unsupported protocol version `v2` (server speaks v1)\n"
    );
    // The client sees EOF promptly, without a server shutdown.
    let mut line = String::new();
    assert_eq!(rd.read_line(&mut line).unwrap(), 0, "connection open");
    gw.shutdown();
}

#[test]
fn oversized_request_line_is_rejected() {
    let config = one_worker().with_max_line_bytes(1024);
    let gw = Gateway::bind(Some("127.0.0.1:0"), None, config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    wr.write_all(&[b'a'; 2048]).unwrap();
    wr.flush().unwrap();
    assert_eq!(
        read_reply(&mut rd),
        "error: request line exceeds 1024 bytes\n"
    );
    gw.shutdown();
}

#[test]
fn job_payloads_travel_the_wire() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), None, one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    // Reads the `n` payload lines after a `<key>=<n>` field.
    let payload = |reply: &str, key: &str| -> String {
        let n: usize = reply
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
            .unwrap_or_else(|| panic!("`{reply}` carries {key}="))
            .parse()
            .unwrap();
        reply.lines().skip(1).take(n).collect::<Vec<_>>().join("\n")
    };

    writeln!(wr, "determine instance=projection trace=1").unwrap();
    let reply = read_reply(&mut rd);
    let records = cqfd_obs::jsonl::parse_lines(&payload(&reply, "trace_lines"))
        .expect("trace is valid JSONL");
    assert!(!records.is_empty());
    assert!(
        records.iter().all(|r| r.job == Some(1)),
        "every record is tagged with the job id"
    );
    assert!(
        records
            .iter()
            .any(|r| r.name == "chase.run" || r.name == "oracle.certify_run"),
        "trace covers the chase/oracle spans"
    );

    // `short` lints with warnings (dead symbols) but no errors, so the
    // job runs and the report rides along behind `lint_lines=`.
    writeln!(wr, "creep worm=short lint=1").unwrap();
    let reply = read_reply(&mut rd);
    assert!(reply.contains("verdict=halted"), "{reply}");
    let lint = payload(&reply, "lint_lines");
    assert!(lint.starts_with("cqfd-lint v1\n"), "{lint}");
    assert!(lint.ends_with("\nend"), "{lint}");
    assert!(lint.contains("severity=warn"), "{lint}");
    gw.shutdown();
}

#[test]
fn both_transports_answer_byte_identically() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), Some("127.0.0.1:0"), one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");

    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    writeln!(wr, "creep worm=short cert=1").unwrap();
    let line_answer = read_reply(&mut rd);

    let mut http = HttpClient::connect(gw.http_addr().unwrap());
    let resp = http.request(&post_jobs("{\"job\":\"creep worm=short cert=1\"}", &[]));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let pairs = json::parse_object(&resp.body).expect("response is JSON");
    assert_eq!(
        json::get(&pairs, "verdict").and_then(|v| v.as_str()),
        Some("halted")
    );
    let http_answer = json::get(&pairs, "result")
        .and_then(|v| v.as_str())
        .expect("result field")
        .to_string();

    // The HTTP `result` field embeds the exact line-protocol rendering,
    // so modulo job id and wall time the payloads are byte-identical —
    // including the certificate, which must also check out.
    assert_eq!(
        normalize(line_answer.trim_end()),
        normalize(&http_answer),
        "transports diverged"
    );
    let cert_start = http_answer.find('\n').expect("certificate payload");
    let cert = cqfd_cert::parse(&http_answer[cert_start + 1..]).expect("valid certificate");
    assert!(cqfd_cert::check(&cert).is_ok());
    gw.shutdown();
}

#[test]
fn healthz_metrics_and_keepalive() {
    let gw = Gateway::bind(None, Some("127.0.0.1:0"), one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut http = HttpClient::connect(gw.http_addr().unwrap());

    let resp = http.request(&get("/healthz"));
    assert_eq!(resp.status, 200);
    let health = String::from_utf8_lossy(&resp.body).to_string();
    // Liveness contract: the first line is still the bare `ok`.
    assert_eq!(health.lines().next(), Some("ok"), "{health}");
    // Readiness payload behind it.
    assert!(health.contains("workers=1"), "{health}");
    assert!(health.contains("queue_depth="), "{health}");
    assert!(health.contains("lane_interactive_depth="), "{health}");
    assert!(health.contains("lane_batch_depth="), "{health}");
    assert!(health.contains("store=absent"), "{health}");

    let resp = http.request(&get("/metrics"));
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("content-type")
        .is_some_and(|v| v.starts_with("text/plain")));
    let text = String::from_utf8_lossy(&resp.body);
    assert!(text.contains("cqfd_gateway_connections"), "{text}");
    assert!(text.contains("# TYPE"), "{text}");

    let resp = http.request(&get("/nope"));
    assert_eq!(resp.status, 404);

    let resp = http.request(&post_jobs("not json at all", &[]));
    assert_eq!(resp.status, 400);

    // The connection survived all of the above (keep-alive).
    let resp = http.request(&get("/healthz"));
    assert_eq!(resp.status, 200);
    gw.shutdown();
}

#[test]
fn shutdown_is_honored_when_the_client_closes_without_reading() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), None, one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = gw.line_addr().unwrap();
    // Fire and forget: the command and the FIN ride in together, so the
    // reactor sees EOF on the very read that buffers the line. The
    // buffered command must still run — dropping it leaves the gateway
    // deaf forever (this was a real hang: `printf 'shutdown\n' >&3;
    // exec 3<&-` from a shell script never stopped the server).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"shutdown\n").expect("write");
    drop(stream);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gw.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("gateway should stop after a fire-and-forget shutdown");
}

/// Reads one framed debug reply (`<word>_lines=N` then N lines).
fn read_framed(rd: &mut BufReader<TcpStream>, word: &str) -> String {
    let mut head = String::new();
    rd.read_line(&mut head).expect("frame head");
    let n: usize = head
        .trim()
        .strip_prefix(&format!("{word}_lines="))
        .unwrap_or_else(|| panic!("bad frame head for {word}: {head}"))
        .parse()
        .expect("frame count");
    let mut out = String::new();
    for _ in 0..n {
        let mut l = String::new();
        rd.read_line(&mut l).expect("frame line");
        out.push_str(&l);
    }
    out
}

#[test]
fn debug_endpoints_serve_flight_attribution_and_profile() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), Some("127.0.0.1:0"), one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // Run a real job first so the flight ring and the chase/hom counters
    // have something to report.
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    writeln!(wr, "determine instance=projection").unwrap();
    assert!(read_reply(&mut rd).contains("verdict="));

    let mut http = HttpClient::connect(gw.http_addr().unwrap());

    let resp = http.request(&get("/debug/flight"));
    assert_eq!(resp.status, 200);
    let flight = String::from_utf8_lossy(&resp.body).to_string();
    assert!(!flight.trim().is_empty(), "flight ring empty after a job");
    let records = cqfd_obs::jsonl::parse_lines(&flight).expect("flight dump is valid JSONL");
    assert!(!records.is_empty());

    let resp = http.request(&get("/debug/attribution"));
    assert_eq!(resp.status, 200);
    let attr = String::from_utf8_lossy(&resp.body).to_string();
    assert!(attr.starts_with("# cqfd cost attribution"), "{attr}");
    assert!(attr.contains("totals:"), "{attr}");
    assert!(attr.contains("## rules"), "{attr}");

    // A profile window runs on a detached thread; the reactor must keep
    // answering other connections while it is open.
    http.send(&get("/debug/profile?seconds=1&hz=50"));
    let mut other = HttpClient::connect(gw.http_addr().unwrap());
    let started = Instant::now();
    let health = other.request(&get("/healthz"));
    assert_eq!(health.status, 200);
    assert!(
        started.elapsed() < Duration::from_millis(800),
        "reactor blocked during a profile window"
    );
    let resp = http.read_response();
    assert_eq!(resp.status, 200);
    assert!(!resp.body.is_empty(), "profile reply is never empty");

    // Bad query arguments are a 400, not a wedged connection.
    let resp = http.request(&get("/debug/profile?seconds=99"));
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("seconds"));

    // The same three surfaces exist as line-protocol control words.
    writeln!(wr, "flight").unwrap();
    let flight = read_framed(&mut rd, "flight");
    assert!(cqfd_obs::jsonl::parse_lines(&flight).is_ok_and(|r| !r.is_empty()));
    writeln!(wr, "attribution").unwrap();
    let attr = read_framed(&mut rd, "attribution");
    assert!(attr.contains("# cqfd cost attribution"), "{attr}");
    writeln!(wr, "profile seconds=1 hz=50").unwrap();
    let folded = read_framed(&mut rd, "profile");
    assert!(!folded.trim().is_empty());
    writeln!(wr, "profile seconds=99").unwrap();
    let mut err = String::new();
    rd.read_line(&mut err).unwrap();
    assert!(err.starts_with("error:"), "{err}");
    gw.shutdown();
}

#[test]
fn quota_exhaustion_sheds_with_retry_after() {
    // One token, glacial refill: the second request must shed on either
    // transport (the bucket is shared across both).
    let config = one_worker().with_quota(
        "acme",
        Quota {
            rate: 0.05,
            burst: 1.0,
        },
    );
    let gw = Gateway::bind(Some("127.0.0.1:0"), Some("127.0.0.1:0"), config)
        .expect("bind")
        .spawn()
        .expect("spawn");

    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    writeln!(wr, "creep worm=short tenant=acme").unwrap();
    assert!(read_reply(&mut rd).contains("verdict=halted"));
    writeln!(wr, "creep worm=short tenant=acme").unwrap();
    let shed = read_reply(&mut rd);
    assert!(shed.starts_with("busy retry-after-ms="), "{shed}");
    let ms: u64 = shed
        .trim()
        .strip_prefix("busy retry-after-ms=")
        .unwrap()
        .parse()
        .unwrap();
    assert!(ms > 0);

    let mut http = HttpClient::connect(gw.http_addr().unwrap());
    let resp = http.request(&post_jobs(
        "{\"job\":\"creep worm=short\"}",
        &[("X-Cqfd-Tenant", "acme")],
    ));
    assert_eq!(resp.status, 429);
    assert!(resp.header("retry-after").is_some(), "Retry-After header");
    let body = String::from_utf8_lossy(&resp.body);
    assert!(body.contains("retry_after_ms"), "{body}");

    // Other tenants are untouched by acme's empty bucket.
    let resp = http.request(&post_jobs("{\"job\":\"creep worm=short\"}", &[]));
    assert_eq!(resp.status, 200);
    gw.shutdown();
}

#[test]
fn saturated_lanes_shed_instead_of_queueing() {
    // worker=1 + pool queue=1 + lane=1: three jobs fit in flight, the
    // fourth and fifth must shed promptly while the first still runs.
    let config = GatewayConfig::default()
        .with_pool(PoolConfig::default().with_workers(1).with_queue_capacity(1))
        .with_lane_capacity(1);
    let gw = Gateway::bind(Some("127.0.0.1:0"), None, config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = gw.line_addr().unwrap();

    let slow = "creep worm=forever steps=max timeout-ms=1000";
    let mut clients: Vec<(BufReader<TcpStream>, TcpStream)> = Vec::new();
    for _ in 0..5 {
        clients.push(line_client(addr));
    }
    for (_, wr) in clients.iter_mut() {
        writeln!(wr, "{slow}").unwrap();
        // Give the reactor a beat so arrival order is deterministic.
        std::thread::sleep(Duration::from_millis(30));
    }
    // Clients 4 and 5 found worker, pool queue, and lane all full.
    for (rd, _) in clients.iter_mut().skip(3) {
        let started = Instant::now();
        let reply = read_reply(rd);
        assert!(reply.starts_with("busy retry-after-ms="), "{reply}");
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "shedding must not wait for the running job"
        );
    }
    // Client 1's slow job still answers.
    let reply = read_reply(&mut clients[0].0);
    assert!(reply.contains("verdict="), "{reply}");
    gw.shutdown();
}

#[test]
fn streaming_delivers_trace_events_on_both_transports() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), Some("127.0.0.1:0"), one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // Line protocol: `trace_event <jsonl>` lines precede the result.
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    writeln!(wr, "creep worm=short stream=1").unwrap();
    let mut trace_lines = 0;
    let result = loop {
        let mut line = String::new();
        rd.read_line(&mut line).unwrap();
        if let Some(rec) = line.strip_prefix("trace_event ") {
            assert!(rec.trim_start().starts_with('{'), "{rec}");
            trace_lines += 1;
        } else {
            break line;
        }
    };
    assert!(trace_lines > 0, "no live trace records reached the client");
    assert!(result.contains("verdict=halted"), "{result}");

    // HTTP: a chunked NDJSON stream, closed by the result object.
    let mut http = HttpClient::connect(gw.http_addr().unwrap());
    let resp = http.request(&post_jobs(
        "{\"job\":\"creep worm=short\",\"stream\":true}",
        &[],
    ));
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked")));
    let body = String::from_utf8_lossy(&resp.body);
    let lines: Vec<&str> = body.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected trace records before the result: {body}"
    );
    let final_obj = json::parse_object(lines.last().unwrap().as_bytes()).expect("result object");
    assert_eq!(
        json::get(&final_obj, "verdict").and_then(|v| v.as_str()),
        Some("halted")
    );
    assert!(
        lines[..lines.len() - 1]
            .iter()
            .all(|l| l.contains("\"seq\"")),
        "stream lines are obs JSONL records: {body}"
    );
    gw.shutdown();
}

#[test]
fn malformed_http_is_answered_and_never_wedges_the_reactor() {
    let gw = Gateway::bind(None, Some("127.0.0.1:0"), one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = gw.http_addr().unwrap();

    let mut oversized_head = b"GET / HTTP/1.1\r\nX-Filler: ".to_vec();
    oversized_head.extend(std::iter::repeat_n(b'a', 64 * 1024));
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"BOGUS LINE\r\n\r\n".to_vec(), 400),
        (b"GET / HTTP/9.9\r\n\r\n".to_vec(), 505),
        (
            b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n".to_vec(),
            400,
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n"
                .to_vec(),
            400,
        ),
        (oversized_head, 431),
    ];
    for (wire, want) in cases {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&wire).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("read 4xx + close");
        let head = String::from_utf8_lossy(&reply);
        assert!(
            head.starts_with(&format!("HTTP/1.1 {want} ")),
            "for {:?}: {head}",
            String::from_utf8_lossy(&wire)
        );
    }

    // After all that abuse a well-formed request still answers.
    let mut http = HttpClient::connect(addr);
    let resp = http.request(&post_jobs("{\"job\":\"creep worm=short\"}", &[]));
    assert_eq!(resp.status, 200);
    gw.shutdown();
}

#[test]
fn an_error_reply_survives_a_peer_that_keeps_sending() {
    // The peer is still sending when its oversized head is refused, so
    // unread bytes sit in the server's socket. Closing it then would send
    // a reset, and the peer would read ECONNRESET after (or instead of)
    // the 431; the connection must half-close and drain instead.
    let gw = Gateway::bind(None, Some("127.0.0.1:0"), one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut stream = TcpStream::connect(gw.http_addr().unwrap()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(b"GET / HTTP/1.1\r\nX-Filler: ");
        for _ in 0..128 {
            if writer.write_all(&[b'a'; 64 * 1024]).is_err() {
                break;
            }
        }
        let _ = writer.shutdown(std::net::Shutdown::Write);
    });
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("read 431 + FIN, not a reset");
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 431 "), "{reply}");
    sender.join().unwrap();
    gw.shutdown();
}

#[test]
fn mid_request_stalls_hit_the_read_deadline_but_idle_conns_survive() {
    let config = one_worker().with_read_deadline(Duration::from_millis(150));
    let gw = Gateway::bind(Some("127.0.0.1:0"), Some("127.0.0.1:0"), config)
        .expect("bind")
        .spawn()
        .expect("spawn");

    // An idle connection (no partial request) outlives the deadline...
    let (mut idle_rd, mut idle_wr) = line_client(gw.line_addr().unwrap());

    // ...while a half-sent line is cut off.
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    wr.write_all(b"creep worm=sho").unwrap();
    wr.flush().unwrap();
    let started = Instant::now();
    let mut line = String::new();
    rd.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("error: request line not completed within"),
        "{line}"
    );
    assert!(started.elapsed() < Duration::from_secs(5));
    line.clear();
    assert_eq!(rd.read_line(&mut line).unwrap(), 0, "connection closed");

    // A half-sent HTTP head gets 408 and a close.
    let mut stream = TcpStream::connect(gw.http_addr().unwrap()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Le")
        .unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 408 "),
        "{}",
        String::from_utf8_lossy(&reply)
    );

    // The idle connection is still serviceable well past the deadline.
    std::thread::sleep(Duration::from_millis(100));
    writeln!(idle_wr, "creep worm=short").unwrap();
    assert!(read_reply(&mut idle_rd).contains("verdict=halted"));
    gw.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), Some("127.0.0.1:0"), one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // HTTP: two POSTs in one write; two responses, in order.
    let mut http = HttpClient::connect(gw.http_addr().unwrap());
    let mut wire = ghttp::render_request(&post_jobs("{\"job\":\"creep worm=short\"}", &[]), false);
    wire.extend(ghttp::render_request(
        &post_jobs("{\"job\":\"determine instance=projection\"}", &[]),
        true, // second one chunked, exercising the de-chunker in the pipeline
    ));
    http.stream.write_all(&wire).unwrap();
    let first = http.read_response();
    let second = http.read_response();
    let verdict = |resp: &ghttp::Response| {
        let pairs = json::parse_object(&resp.body).expect("json body");
        json::get(&pairs, "verdict")
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    assert_eq!(verdict(&first).as_deref(), Some("halted"));
    assert_eq!(verdict(&second).as_deref(), Some("not-determined"));

    // Line protocol: two jobs in one write; two replies, in order.
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    wr.write_all(b"creep worm=short\ndetermine instance=projection\n")
        .unwrap();
    assert!(read_reply(&mut rd).contains("verdict=halted"));
    assert!(read_reply(&mut rd).contains("verdict=not-determined"));
    gw.shutdown();
}

#[test]
fn requests_that_once_crashed_the_server_get_error_replies() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), Some("127.0.0.1:0"), one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let requests = [
        r#""""#,
        "creep worm=counter:0",
        "reduce worm=tm-zigzag:0",
        "reduce worm=tm-zigzag:1",
        r#"rewrite sig=R/2 view="V(x,y) :- R(x,z), R(z,y)" view="V(x) :- R(x,x)" query="Q0(x,y) :- R(x,y)""#,
    ];
    let (mut rd, mut wr) = line_client(gw.line_addr().unwrap());
    let mut http = HttpClient::connect(gw.http_addr().unwrap());
    for request in requests {
        writeln!(wr, "{request}").unwrap();
        let reply = read_reply(&mut rd);
        assert!(reply.starts_with("error: "), "{request}: {reply}");
        let body = format!("{{\"job\":\"{}\"}}", json::escape(request));
        let resp = http.request(&post_jobs(&body, &[]));
        assert_eq!(resp.status, 400, "{request}");
        let pairs = json::parse_object(&resp.body).expect("error body is JSON");
        assert!(json::get(&pairs, "error").is_some(), "{request}");
    }
    // The same server, on the same connections, still answers.
    writeln!(wr, "creep worm=short").unwrap();
    assert!(read_reply(&mut rd).contains("verdict=halted"));
    let resp = http.request(&post_jobs("{\"job\":\"creep worm=short\"}", &[]));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    gw.shutdown();
}

#[test]
fn shutdown_word_stops_the_gateway() {
    let gw = Gateway::bind(Some("127.0.0.1:0"), None, one_worker())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = gw.line_addr().unwrap();
    let (mut rd, mut wr) = line_client(addr);
    writeln!(wr, "shutdown").unwrap();
    let mut line = String::new();
    rd.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "bye");
    gw.join(); // returns only once the reactor and pool are gone
    assert!(TcpStream::connect(addr).is_err() || std::net::TcpListener::bind(addr).is_ok());
}
