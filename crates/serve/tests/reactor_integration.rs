//! End-to-end tests of the ingress reactor: framing across partial reads,
//! pipelining through the per-connection sequencer, STATS interleaving,
//! write/admission backpressure, the connection cap, backend parity, and
//! graceful drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucudnn::json::Value;
use ucudnn::{IngressBackend, IngressOptions, ServeOptions};
use ucudnn_cudnn_sim::CudnnHandle;
use ucudnn_serve::{BatchRunner, RealModelRunner, Server, TcpFrontend};

fn opts() -> ServeOptions {
    ServeOptions {
        slo_us: 2_000_000.0, // generous: these tests assert behaviour, not speed
        queue_cap: 256,
        workers: 2,
        max_batch: 8,
    }
}

fn ingress(loops: usize) -> IngressOptions {
    IngressOptions {
        max_conns: 1024,
        loops,
        backend: None,
    }
}

fn sample(i: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|j| ((i * 31 + j) % 17) as f32 * 0.05)
        .collect()
}

fn request_line(id: usize, len: usize) -> String {
    let input = sample(id, len)
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"id\":{id},\"input\":[{input}]}}\n")
}

fn real_frontend(seed: u64, io: &IngressOptions) -> (Arc<Server>, TcpFrontend, usize) {
    let runner = Arc::new(RealModelRunner::new(CudnnHandle::real_cpu(), seed, 8));
    let len = runner.sample_len();
    let server = Arc::new(Server::start(runner, &opts()));
    let tcp = TcpFrontend::start_with(Arc::clone(&server), "127.0.0.1:0", io).expect("bind");
    (server, tcp, len)
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn partial_lines_reassemble_across_reads() {
    let (server, tcp, len) = real_frontend(21, &ingress(1));
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // One request dribbled in three writes with pauses: the reactor must
    // buffer the partial frame across readiness events.
    let line = request_line(5, len);
    let bytes = line.as_bytes();
    for chunk in [
        &bytes[..7],
        &bytes[7..bytes.len() - 3],
        &bytes[bytes.len() - 3..],
    ] {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let v = Value::parse(resp.trim()).expect("valid response");
    assert_eq!(v.get("id").unwrap().as_u64(), Some(5));
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));

    drop(stream);
    tcp.stop();
    server.drain();
}

#[test]
fn pipelined_requests_answer_strictly_in_order() {
    let (server, tcp, len) = real_frontend(22, &ingress(2));
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // One write carrying 16 requests: the batcher may complete them out of
    // order across micro-batches, but the sequencer must emit responses in
    // request order.
    let mut frame = String::new();
    for i in 0..16 {
        frame.push_str(&request_line(i, len));
    }
    stream.write_all(frame.as_bytes()).unwrap();
    for i in 0..16 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Value::parse(line.trim()).expect("valid response");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(i as u64), "order broke");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    drop(stream);
    tcp.stop();
    server.drain();
}

#[test]
fn stats_interleaves_mid_stream_in_slot_order() {
    let (server, tcp, len) = real_frontend(23, &ingress(1));
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // request, STATS, request — pipelined in one write. The exposition is
    // instant while the requests batch through workers, so only the
    // sequencer keeps it in its slot between the two responses.
    let frame = format!("{}STATS\n{}", request_line(0, len), request_line(1, len));
    stream.write_all(frame.as_bytes()).unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Value::parse(line.trim()).expect("first response");
    assert_eq!(v.get("id").unwrap().as_u64(), Some(0));

    // The multi-line exposition, terminated by "# EOF".
    let mut saw_metric = false;
    loop {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        if l.starts_with("ucudnn_serve_conn_accepted_total") {
            saw_metric = true;
        }
        assert!(
            !l.starts_with('{'),
            "response leaked into the exposition: {l}"
        );
        if l.trim() == "# EOF" {
            break;
        }
    }
    assert!(saw_metric, "exposition must include ingress counters");

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Value::parse(line.trim()).expect("second response");
    assert_eq!(v.get("id").unwrap().as_u64(), Some(1));

    drop(stream);
    tcp.stop();
    server.drain();
}

#[test]
fn a_slow_reader_trips_write_backpressure_and_loses_nothing() {
    let (server, tcp, _len) = real_frontend(24, &ingress(1));
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();

    // Thousands of pipelined STATS with no reader: the outbound buffer
    // crosses the high-water mark, read interest parks, kernel buffers
    // absorb the rest of the request frame.
    const N: usize = 4_000;
    let frame = "STATS\n".repeat(N);
    stream.write_all(frame.as_bytes()).unwrap();
    let m = server.metrics();
    assert!(
        wait_until(Duration::from_secs(10), || m.conn_write_backpressure.get()
            > 0),
        "write backpressure never tripped"
    );

    // Now read: every exposition arrives, complete and in order, as the
    // park/unpark cycle drains the backlog.
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut eofs = 0;
    while eofs < N {
        let mut l = String::new();
        assert!(reader.read_line(&mut l).unwrap() > 0, "stream ended early");
        if l.trim() == "# EOF" {
            eofs += 1;
        }
    }
    assert_eq!(eofs, N);

    drop(stream);
    drop(reader);
    tcp.stop();
    server.drain();
}

/// A deliberately slow runner: each micro-batch holds a worker long enough
/// for the admission queue to fill under a pipelined burst.
struct SlowRunner;

impl BatchRunner for SlowRunner {
    fn sample_len(&self) -> usize {
        4
    }
    fn output_len(&self) -> usize {
        2
    }
    fn batch_sizes(&self) -> Vec<usize> {
        vec![1, 2, 4]
    }
    fn run(&self, n: usize, _inputs: &[f32]) -> Result<Vec<f32>, String> {
        std::thread::sleep(Duration::from_millis(3));
        Ok(vec![0.5; n * 2])
    }
    fn latency_table(&self) -> Vec<(usize, f64)> {
        vec![(1, 3_000.0), (2, 3_100.0), (4, 3_200.0)]
    }
}

#[test]
fn a_full_admission_queue_parks_reads_instead_of_shedding() {
    let server = Arc::new(Server::start(
        Arc::new(SlowRunner),
        &ServeOptions {
            slo_us: 10_000_000.0,
            queue_cap: 4,
            workers: 1,
            max_batch: 4,
        },
    ));
    let tcp = TcpFrontend::start_with(Arc::clone(&server), "127.0.0.1:0", &ingress(1)).unwrap();
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // 64 pipelined requests against a queue of 4 over a slow worker: the
    // reactor must pause admission (kernel buffers hold the surplus) and
    // trickle everything through with zero sheds.
    const N: usize = 64;
    let mut frame = String::new();
    for i in 0..N {
        frame.push_str(&format!("{{\"id\":{i},\"input\":[0.1,0.2,0.3,0.4]}}\n"));
    }
    stream.write_all(frame.as_bytes()).unwrap();
    for i in 0..N {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Value::parse(line.trim()).expect("valid response");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(i as u64));
        assert_eq!(
            v.get("ok"),
            Some(&Value::Bool(true)),
            "request {i} was shed: {line}"
        );
    }
    let m = server.metrics();
    assert!(
        m.conn_admission_pause.get() > 0,
        "the burst must have parked read interest at least once"
    );
    assert_eq!(
        m.shed_total(),
        0,
        "backpressure must precede the shed ladder"
    );
    assert_eq!(m.completed.get(), N as u64);

    drop(stream);
    tcp.stop();
    server.drain();
}

#[test]
fn a_backlog_larger_than_the_read_cap_is_served_not_dropped() {
    // Regression: while admission is paused the kernel socket buffers can
    // hold more pipelined bytes than the reactor's 4 MiB read cap. The
    // reactor used to drain all of them into its read buffer in one go on
    // resume and kill the connection as if one frame were oversized. Each
    // line here is valid JSON padded to ~64 KiB (a long float literal), so
    // the pipeline is several times the cap while no single frame is.
    let server = Arc::new(Server::start(
        Arc::new(SlowRunner),
        &ServeOptions {
            slo_us: 60_000_000.0,
            queue_cap: 4,
            workers: 1,
            max_batch: 4,
        },
    ));
    let tcp = TcpFrontend::start_with(Arc::clone(&server), "127.0.0.1:0", &ingress(1)).unwrap();
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    const N: usize = 160;
    let writer = std::thread::spawn(move || {
        let pad = "0".repeat(64 * 1024);
        for i in 0..N {
            let line = format!("{{\"id\":{i},\"input\":[0.1{pad},0.2,0.3,0.4]}}\n");
            stream.write_all(line.as_bytes())?;
        }
        Ok::<_, std::io::Error>(stream)
    });
    for i in 0..N {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed after {i} responses"
        );
        let v = Value::parse(line.trim()).expect("valid response");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(i as u64));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{line}");
    }
    drop(writer.join().unwrap().expect("the server kept reading"));
    let m = server.metrics();
    assert!(
        m.conn_admission_pause.get() > 0,
        "admission must have paused"
    );
    assert_eq!(m.conn_read_err.get(), 0);
    assert_eq!(m.completed.get(), N as u64);

    tcp.stop();
    server.drain();
}

#[test]
fn a_single_frame_past_the_read_cap_closes_the_connection() {
    let server = Arc::new(Server::start(Arc::new(SlowRunner), &opts()));
    let tcp = TcpFrontend::start_with(Arc::clone(&server), "127.0.0.1:0", &ingress(1)).unwrap();
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    // 5 MiB with no line terminator: one frame larger than the 4 MiB cap.
    // The server may close mid-write, so the write result is not checked.
    let _ = stream.write_all(&vec![b' '; 5 * 1024 * 1024]);
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no response to an oversized frame");
    assert!(wait_until(Duration::from_secs(5), || server
        .metrics()
        .conn_read_err
        .get()
        == 1));

    tcp.stop();
    server.drain();
}

#[test]
fn the_connection_cap_rejects_at_the_listener() {
    let (server, tcp, len) = real_frontend(
        25,
        &IngressOptions {
            max_conns: 2,
            loops: 1,
            backend: None,
        },
    );
    let m = server.metrics();
    let mut keep: Vec<TcpStream> = Vec::new();
    for i in 0..2 {
        let mut s = TcpStream::connect(tcp.local_addr()).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        s.write_all(request_line(i, len).as_bytes()).unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "conn {i} must serve: {line}");
        keep.push(s);
    }
    // The third connection is dropped before any protocol state exists.
    let mut third = TcpStream::connect(tcp.local_addr()).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || m.conn_rejected.get() > 0),
        "the cap never rejected"
    );
    third
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match third.read(&mut buf) {
        Ok(0) => {} // clean close
        Ok(n) => panic!("rejected connection served {n} bytes"),
        Err(_) => {} // reset — also a refusal
    }
    // Freeing a slot re-opens the door.
    drop(keep.pop());
    assert!(
        wait_until(Duration::from_secs(5), || m.conn_active.get() < 2.0),
        "closed connection never left the ledger"
    );
    let mut s = TcpStream::connect(tcp.local_addr()).unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    s.write_all(request_line(7, len).as_bytes()).unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":true"),
        "freed slot must serve: {line}"
    );

    drop(s);
    drop(keep);
    tcp.stop();
    server.drain();
}

#[test]
fn the_poll_backend_serves_the_identical_protocol() {
    let (server, tcp, len) = real_frontend(
        26,
        &IngressOptions {
            max_conns: 64,
            loops: 2,
            backend: Some(IngressBackend::Poll),
        },
    );
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let frame = format!("{}STATS\n{}", request_line(0, len), request_line(1, len));
    stream.write_all(frame.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"id\":0") && line.contains("\"ok\":true"));
    loop {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        if l.trim() == "# EOF" {
            break;
        }
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"id\":1") && line.contains("\"ok\":true"));

    drop(stream);
    tcp.stop();
    server.drain();
}

#[test]
fn an_unterminated_final_line_is_served_on_eof() {
    let (server, tcp, len) = real_frontend(28, &ingress(1));
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    // A terminated request pipelined with a final fragment missing its
    // newline, then half-close: the old thread-per-connection front-end
    // served the trailing fragment, so the reactor must answer both.
    let frame = format!("{}{}", request_line(0, len), request_line(1, len));
    stream.write_all(frame.trim_end().as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let mut reader = BufReader::new(stream);
    for i in 0..2u64 {
        let mut resp = String::new();
        assert!(
            reader.read_line(&mut resp).unwrap() > 0,
            "response {i} never arrived"
        );
        let v = Value::parse(resp.trim()).expect("valid response");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(i));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }
    // Everything owed was delivered; the connection must then close
    // cleanly rather than linger idle.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "conn lingered");

    tcp.stop();
    server.drain();
}

#[test]
fn completion_driven_write_pause_does_not_kill_live_senders() {
    // Regression for the phantom-HUP race: a completion delivered through
    // the loop inbox can push a connection's outbound buffer over the
    // high-water mark and park its read interest mid-tick. Under the old
    // inbox-before-events ordering, a data-arrival readiness event
    // captured in the same wait batch then matched "readable while reads
    // parked" — the unmaskable-HUP signature — and the live connection was
    // torn down as a write error. The amplifier here: each round pipelines
    // one slow submit followed by a pile of STATS verbs, whose multi-KB
    // expositions queue in the reorder buffer *behind* the pending submit;
    // the submit's inbox completion then releases them all at once, so one
    // Complete message grows `out` by hundreds of KB while the writer half
    // keeps the socket's inbound side non-empty.
    let server = Arc::new(Server::start(
        Arc::new(SlowRunner),
        &ServeOptions {
            slo_us: 60_000_000.0,
            queue_cap: 4096,
            workers: 2,
            max_batch: 4,
        },
    ));
    let tcp = TcpFrontend::start_with(Arc::clone(&server), "127.0.0.1:0", &ingress(1)).unwrap();
    // Size the STATS pile so one released round crosses the 256 KiB
    // high-water mark on its own.
    let stats_per_round = 1 + 300 * 1024 / server.exposition().len();
    const CONNS: usize = 8;
    const ROUNDS: usize = 40;
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        let addr = tcp.local_addr();
        clients.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let w = std::thread::spawn(move || {
                let mut round = "{\"id\":7,\"input\":[0.1,0.2,0.3,0.4]}\n".to_string();
                round.push_str(&"STATS\n".repeat(stats_per_round));
                for _ in 0..ROUNDS {
                    stream.write_all(round.as_bytes()).unwrap();
                    // Just under the submit's 3 ms service time: the next
                    // round's bytes arrive while the previous completion is
                    // being delivered.
                    std::thread::sleep(Duration::from_millis(2));
                }
                stream
            });
            // Read continuously: each drain below the low-water mark
            // re-arms read interest, so every round produces a fresh
            // park transition racing a fresh data arrival.
            for round in 0..ROUNDS {
                let mut line = String::new();
                assert!(
                    reader.read_line(&mut line).unwrap() > 0,
                    "connection died at round {round}"
                );
                let v = Value::parse(line.trim()).expect("valid response");
                assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
                let mut eofs = 0;
                while eofs < stats_per_round {
                    let mut l = String::new();
                    assert!(
                        reader.read_line(&mut l).unwrap() > 0,
                        "connection died mid-exposition at round {round}"
                    );
                    if l.trim() == "# EOF" {
                        eofs += 1;
                    }
                }
            }
            drop(w.join().unwrap());
        }));
    }
    for c in clients {
        c.join().expect("client thread panicked");
    }
    let m = server.metrics();
    assert!(
        m.conn_write_backpressure.get() > 0,
        "the STATS pile must trip the write high-water mark"
    );
    assert_eq!(
        m.conn_write_err.get(),
        0,
        "a live connection was torn down as dead"
    );
    assert_eq!(m.completed.get(), (CONNS * ROUNDS) as u64);

    tcp.stop();
    server.drain();
}

#[test]
fn data_arriving_during_admission_pause_is_not_mistaken_for_hangup() {
    // Regression: a readable event captured while EV_READ was armed used
    // to be reclassified as a hangup when an inbox completion parked the
    // read interest in the same wait batch — tearing down a live
    // connection precisely under queue-full backpressure. Dribble writes
    // against a full queue while responses flow; the connection must
    // survive with every response delivered in order.
    let server = Arc::new(Server::start(
        Arc::new(SlowRunner),
        &ServeOptions {
            slo_us: 10_000_000.0,
            queue_cap: 2,
            workers: 1,
            max_batch: 2,
        },
    ));
    let tcp = TcpFrontend::start_with(Arc::clone(&server), "127.0.0.1:0", &ingress(1)).unwrap();
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    const N: usize = 48;
    let writer = std::thread::spawn(move || {
        for i in 0..N {
            stream
                .write_all(format!("{{\"id\":{i},\"input\":[0.1,0.2,0.3,0.4]}}\n").as_bytes())
                .unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        stream
    });
    for i in 0..N {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection died at response {i}"
        );
        let v = Value::parse(line.trim()).expect("valid response");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(i as u64));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }
    let stream = writer.join().unwrap();
    let m = server.metrics();
    assert_eq!(
        m.conn_write_err.get(),
        0,
        "a live connection was torn down as dead"
    );
    assert_eq!(m.completed.get(), N as u64);

    drop(stream);
    drop(reader);
    tcp.stop();
    server.drain();
}

#[test]
fn half_close_delivers_everything_owed_then_closes() {
    let (server, tcp, len) = real_frontend(27, &ingress(1));
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    let mut frame = String::new();
    for i in 0..8 {
        frame.push_str(&request_line(i, len));
    }
    stream.write_all(frame.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    // EOF with eight requests in flight: the connection must finish all
    // eight responses before closing its side.
    let mut reader = BufReader::new(stream);
    let mut got = 0;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let v = Value::parse(line.trim()).expect("valid response");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(got as u64));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        got += 1;
    }
    assert_eq!(got, 8, "half-close must not drop owed responses");

    tcp.stop();
    server.drain();
}

#[test]
fn stop_drains_in_flight_responses_before_closing() {
    let server = Arc::new(Server::start(
        Arc::new(SlowRunner),
        &ServeOptions {
            slo_us: 10_000_000.0,
            queue_cap: 64,
            workers: 1,
            max_batch: 4,
        },
    ));
    let tcp = TcpFrontend::start_with(Arc::clone(&server), "127.0.0.1:0", &ingress(1)).unwrap();
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
    const N: usize = 8;
    let mut frame = String::new();
    for i in 0..N {
        frame.push_str(&format!("{{\"id\":{i},\"input\":[0.1,0.2,0.3,0.4]}}\n"));
    }
    stream.write_all(frame.as_bytes()).unwrap();
    // Let the reactor ingest and submit the burst, then stop mid-flight:
    // the drain must deliver every admitted response before closing.
    let m = server.metrics();
    assert!(wait_until(Duration::from_secs(5), || m.submitted.get() >= 1));
    tcp.stop();
    let mut reader = BufReader::new(stream);
    let mut got = 0u64;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let v = Value::parse(line.trim()).expect("valid response");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        got += 1;
    }
    assert_eq!(
        got,
        m.completed.get(),
        "every request completed by the server must reach the socket"
    );
    assert!(got >= 1, "the drain must have delivered something");
    server.drain();
}
