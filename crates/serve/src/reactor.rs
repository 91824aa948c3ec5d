//! The C10k ingress reactor: a readiness-driven event-loop front-end for
//! the TCP line protocol (DESIGN.md §15).
//!
//! The previous front-end spent one thread per connection and slept 2 ms
//! between accepts; it saturated at a few hundred clients while the dynamic
//! batcher behind it sat idle. This module replaces it with a small fixed
//! pool of event-loop threads (`UCUDNN_SERVE_LOOPS`), each owning a
//! [`Poller`](crate::sys::Poller) — raw epoll on Linux, `poll(2)` as the
//! portable fallback — and a slab of per-connection state machines:
//!
//! * **Framing** lives in the connection, not a thread: partial lines
//!   accumulate in a read buffer across readiness events, pipelined
//!   requests all parse out of one read, and the multi-line `STATS`
//!   exposition is just bytes in the outbound buffer, streamed as the
//!   socket accepts them under write-readiness.
//! * **Delivery** is a completion callback ([`Server::submit_with`]) that
//!   enqueues the rendered response line onto the owning loop's inbox and
//!   wakes it — no thread ever parks in a ticket wait. A per-connection
//!   sequencer assigns every inbound line a slot at parse time and emits
//!   responses strictly in slot order, so pipelined clients observe exactly
//!   the request-order replies the thread-per-connection code produced.
//! * **Backpressure** is explicit and two-stage. When the admission queue
//!   is full, the connection parks its *read* interest before the shed
//!   ladder would fire — unread requests wait in kernel socket buffers —
//!   and resumes at half-drain hysteresis. A slow reader whose outbound
//!   buffer crosses the high-water mark parks reads the same way. Beyond
//!   both, `UCUDNN_SERVE_MAX_CONNS` rejects connections at the listener.
//! * **Shutdown** is a drain, not a leak: [`Reactor::stop`] stops reading,
//!   finishes half-written responses, waits (bounded) for in-flight
//!   requests to resolve, closes every fd, and joins the loop threads.
//!
//! Connection telemetry (accepted/rejected/read-err/write-err/
//! backpressure counters plus the active-connections gauge) lands on the
//! same registry the `STATS` verb scrapes.
//!
//! Tokens are generation-counted (`gen << 32 | slot`): a completion
//! callback that outlives its connection resolves to a stale token and is
//! dropped instead of writing into whoever reused the slot.

use crate::request::{Response, ShedReason};
use crate::server::Server;
use crate::sys::{Backend, Event, Poller, Waker, EV_READ, EV_WRITE};
use crate::tcp::{error_line, ok_line, parse_request, Request};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::prelude::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ucudnn::{IngressBackend, IngressOptions};

/// Outbound-buffer high-water mark: past this, the connection's read
/// interest parks until the reader catches up (counted as
/// `conn_write_backpressure`).
const WRITE_HIGH_WATER: usize = 256 * 1024;
/// Resume reads once the outbound buffer drains below this.
const WRITE_LOW_WATER: usize = WRITE_HIGH_WATER / 4;
/// Cap on buffered unparsed input per connection: reads stop here until
/// the parser catches up, and a single frame that grows past it closes the
/// connection as a read error.
const RBUF_CAP: usize = 4 * 1024 * 1024;
/// Loop tick while any connection is parked (admission or write
/// backpressure) — the resume condition is polled, not signaled.
const PAUSE_TICK_MS: i32 = 10;
/// Bound on the graceful-drain wait at [`Reactor::stop`]: in-flight
/// requests past this are abandoned (their sockets close; the server
/// resolves their callbacks into a dead inbox).
const DRAIN_WAIT: Duration = Duration::from_secs(5);
/// Slab token of the loop waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// Slab token of the listener (loop 0 only).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// A running reactor bound to a [`Server`].
pub struct Reactor {
    addr: SocketAddr,
    shared: Arc<ReactorShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

struct ReactorShared {
    server: Arc<Server>,
    stop: AtomicBool,
    /// Open connections across all loops (the `max_conns` cap's ledger).
    active: AtomicUsize,
    max_conns: usize,
    /// Admission backpressure thresholds, derived from the server's queue.
    queue_cap: usize,
    queue_resume: usize,
    /// Round-robin cursor for sharding accepted connections across loops.
    next_loop: AtomicUsize,
    loops: Vec<Arc<LoopShared>>,
}

/// The cross-thread face of one event loop: an inbox plus a waker.
struct LoopShared {
    inbox: Mutex<Inbox>,
    waker: Waker,
}

/// One loop's message queue plus its liveness flag, kept under one lock so
/// a message can never race into the inbox of a loop that already drained
/// it on exit.
#[derive(Default)]
struct Inbox {
    msgs: Vec<LoopMsg>,
    dead: bool,
}

impl LoopShared {
    /// Deliver `msg` and wake the loop. A loop that has exited (wait error
    /// or shutdown) hands the message back instead of black-holing it.
    fn try_send(&self, msg: LoopMsg) -> Result<(), LoopMsg> {
        {
            let mut inbox = self.inbox.lock().unwrap();
            if inbox.dead {
                return Err(msg);
            }
            inbox.msgs.push(msg);
        }
        self.waker.wake();
        Ok(())
    }

    fn take_inbox(&self) -> Vec<LoopMsg> {
        std::mem::take(&mut self.inbox.lock().unwrap().msgs)
    }

    /// Mark the loop dead and hand back whatever was queued. Every
    /// `try_send` after this bounces to its caller.
    fn retire(&self) -> Vec<LoopMsg> {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.dead = true;
        std::mem::take(&mut inbox.msgs)
    }
}

enum LoopMsg {
    /// A freshly accepted connection handed to this loop.
    Adopt(TcpStream),
    /// A completed request's rendered response (newline included), bound
    /// for `token`'s sequencer slot `seq`. Stale tokens are dropped.
    Complete { token: u64, seq: u64, line: String },
}

/// Why a connection is being torn down (selects the right counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Death {
    /// Clean shutdown: EOF seen, everything owed was delivered.
    Clean,
    /// Read failure, oversized frame, or invalid UTF-8.
    ReadErr,
    /// Write failure (peer reset mid-response).
    WriteErr,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Unparsed inbound bytes (partial or backpressured lines).
    rbuf: Vec<u8>,
    /// Outbound bytes; `[wpos..]` is still owed to the socket.
    out: Vec<u8>,
    wpos: usize,
    /// Next sequencer slot to assign to an inbound line.
    next_seq: u64,
    /// Next slot whose response may be emitted.
    emit_seq: u64,
    /// Fulfilled slots waiting for their turn (reorder buffer).
    ready: std::collections::BTreeMap<u64, String>,
    read_closed: bool,
    /// Peer EOF actually observed (a drain sets `read_closed` without it).
    /// Only a genuine EOF promotes a residual unterminated fragment to a
    /// final line; a drain must not serve a peer's half-sent request.
    eof: bool,
    admission_paused: bool,
    write_paused: bool,
    /// Interest currently armed in the poller.
    interest: u8,
    death: Option<Death>,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Self {
        Self {
            stream,
            token,
            rbuf: Vec::new(),
            out: Vec::new(),
            wpos: 0,
            next_seq: 0,
            emit_seq: 0,
            ready: std::collections::BTreeMap::new(),
            read_closed: false,
            eof: false,
            admission_paused: false,
            write_paused: false,
            interest: 0,
            death: None,
        }
    }

    fn out_len(&self) -> usize {
        self.out.len() - self.wpos
    }

    /// Requests submitted but not yet fulfilled.
    fn unfulfilled(&self) -> u64 {
        self.next_seq - self.emit_seq - self.ready.len() as u64
    }

    fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Fulfill slot `seq` with fully framed bytes, then emit every ready
    /// slot in order into the outbound buffer.
    fn fulfill(&mut self, seq: u64, framed: String) {
        self.ready.insert(seq, framed);
        while let Some(s) = self.ready.remove(&self.emit_seq) {
            self.out.extend_from_slice(s.as_bytes());
            self.emit_seq += 1;
        }
    }

    fn desired_interest(&self, draining: bool) -> u8 {
        let mut i = 0;
        if !self.read_closed && !self.admission_paused && !self.write_paused && !draining {
            i |= EV_READ;
        }
        if self.out_len() > 0 {
            i |= EV_WRITE;
        }
        i
    }
}

/// Generation-counted connection slab. A token names (slot, generation);
/// lookups against a reused slot with the wrong generation miss.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
    fn token(slot: usize, gen: u32) -> u64 {
        (u64::from(gen) << 32) | slot as u64
    }

    fn insert(&mut self, stream: TcpStream) -> u64 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(0);
            self.slots.len() - 1
        });
        let token = Self::token(slot, self.gens[slot]);
        self.slots[slot] = Some(Conn::new(stream, token));
        token
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let slot = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        if slot >= self.slots.len() || self.gens[slot] != gen {
            return None;
        }
        self.slots[slot].as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<Conn> {
        let slot = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        if slot >= self.slots.len() || self.gens[slot] != gen {
            return None;
        }
        let conn = self.slots[slot].take()?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        Some(conn)
    }

    fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|c| c.token))
            .collect()
    }
}

impl Reactor {
    /// Bind `addr` and start `opts.loops` event-loop threads.
    ///
    /// # Errors
    /// Socket bind/configure failures, or an unsupported backend request
    /// (epoll on a non-Linux target).
    pub fn start(server: Arc<Server>, addr: &str, opts: &IngressOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let backend = match opts.backend {
            Some(IngressBackend::Epoll) => Backend::Epoll,
            Some(IngressBackend::Poll) => Backend::Poll,
            None => {
                if crate::sys::epoll_supported() {
                    Backend::Epoll
                } else {
                    Backend::Poll
                }
            }
        };
        // Fail fast on an unsupported backend before any thread spawns.
        drop(Poller::new(backend)?);
        let nloops = opts.loops.max(1);
        let mut loop_shared = Vec::with_capacity(nloops);
        for _ in 0..nloops {
            loop_shared.push(Arc::new(LoopShared {
                inbox: Mutex::new(Inbox::default()),
                waker: Waker::new()?,
            }));
        }
        let queue_cap = server.queue_cap();
        let shared = Arc::new(ReactorShared {
            server,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_conns: opts.max_conns.max(1),
            queue_cap,
            queue_resume: queue_cap / 2,
            next_loop: AtomicUsize::new(0),
            loops: loop_shared,
        });
        let mut threads = Vec::with_capacity(nloops);
        let mut listener = Some(listener);
        for idx in 0..nloops {
            let shared2 = Arc::clone(&shared);
            let listener = listener.take(); // loop 0 owns the listener
            let t = std::thread::Builder::new()
                .name(format!("serve-reactor-{idx}"))
                .spawn(move || {
                    EventLoop::new(shared2, idx, listener, backend).run();
                })?;
            threads.push(t);
        }
        Ok(Self {
            addr: bound,
            shared,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Open connections right now, across all loops.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain half-written responses and in-flight requests
    /// (bounded), close every connection, and join the loop threads. Also
    /// runs on drop.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for l in &self.shared.loops {
            l.waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct EventLoop {
    shared: Arc<ReactorShared>,
    idx: usize,
    me: Arc<LoopShared>,
    poller: Poller,
    slab: Slab,
    listener: Option<TcpListener>,
    /// Set once the stop flag is observed; reads stop, writes drain.
    draining: bool,
}

impl EventLoop {
    fn new(
        shared: Arc<ReactorShared>,
        idx: usize,
        listener: Option<TcpListener>,
        backend: Backend,
    ) -> Self {
        let poller = Poller::new(backend).expect("backend validated at Reactor::start");
        let me = Arc::clone(&shared.loops[idx]);
        Self {
            shared,
            idx,
            me,
            poller,
            slab: Slab::default(),
            listener,
            draining: false,
        }
    }

    fn run(mut self) {
        self.run_inner();
        // Retire this loop no matter how run_inner exited (clean drain,
        // registration failure, or a wait error): senders see the dead flag
        // and keep their messages, the accept round-robin skips us, and the
        // residual inbox drains here — an orphaned Adopt is an accepted,
        // counted connection that was never served, so its stream closes
        // and its max_conns ledger entry is released instead of leaking
        // until the cap rejects everything.
        for msg in self.me.retire() {
            if let LoopMsg::Adopt(stream) = msg {
                drop(stream);
                self.release_active();
            }
        }
        // Teardown: every remaining fd closes here (Drop), nothing leaks.
        for token in self.slab.tokens() {
            self.close(token, Death::Clean);
        }
    }

    fn run_inner(&mut self) {
        if self
            .poller
            .add(self.me.waker.fd(), WAKER_TOKEN, EV_READ)
            .is_err()
        {
            return;
        }
        if let Some(l) = &self.listener {
            if self
                .poller
                .add(l.as_raw_fd(), LISTENER_TOKEN, EV_READ)
                .is_err()
            {
                return;
            }
        }
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let any_paused = self
                .slab
                .slots
                .iter()
                .flatten()
                .any(|c| c.admission_paused || c.write_paused);
            let timeout = if self.draining || any_paused {
                PAUSE_TICK_MS
            } else {
                -1
            };
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            // Readiness events MUST be handled before inbox messages.
            // touch() infers hangup from "readable while read interest is
            // parked", which is only sound while `conn.interest` still
            // reflects the mask armed when wait() captured the event —
            // inbox completions can pump a connection into admission/write
            // pause and park that interest mid-batch, turning a genuine
            // data-arrival event into a phantom HUP. The waker also drains
            // here, before the inbox is taken: draining after the take
            // could eat the wake byte of a message pushed in between and
            // strand it until the next unrelated wakeup.
            for &ev in &events {
                match ev.token {
                    WAKER_TOKEN => self.me.waker.drain(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.touch(token, ev),
                }
            }
            let msgs = self.me.take_inbox();
            for msg in msgs {
                match msg {
                    LoopMsg::Adopt(stream) => self.adopt(stream),
                    LoopMsg::Complete { token, seq, line } => self.complete(token, seq, line),
                }
            }
            if !self.draining && self.shared.stop.load(Ordering::SeqCst) {
                self.begin_drain();
                drain_deadline = Some(Instant::now() + DRAIN_WAIT);
            }
            self.resume_paused();
            if self.draining {
                let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
                for token in self.slab.tokens() {
                    let done = {
                        let conn = self.slab.get_mut(token).expect("token just listed");
                        conn.out_len() == 0 && conn.unfulfilled() == 0
                    };
                    if done || expired {
                        self.close(token, Death::Clean);
                    }
                }
                if self.slab.len() == 0 {
                    break;
                }
            }
        }
    }

    /// Enter drain mode: stop accepting (close the listener so new SYNs are
    /// refused), stop reading everywhere, keep delivering what is owed.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(l) = self.listener.take() {
            let _ = self.poller.remove(l.as_raw_fd());
        }
        for token in self.slab.tokens() {
            let Some(conn) = self.slab.get_mut(token) else {
                continue;
            };
            conn.read_closed = true;
            let fd = conn.stream.as_raw_fd();
            let desired = conn.desired_interest(true);
            if desired != conn.interest && self.poller.modify(fd, token, desired).is_err() {
                conn.death = Some(Death::ReadErr);
            }
            conn.interest = desired;
            if conn.death.is_some() {
                self.close(token, Death::ReadErr);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(l) = &self.listener else { return };
            match l.accept() {
                Ok((stream, _)) => {
                    let m = self.shared.server.metrics();
                    if self.draining {
                        continue; // refused: reactor is shutting down
                    }
                    let active = self.shared.active.load(Ordering::Relaxed);
                    if active >= self.shared.max_conns {
                        m.conn_rejected.inc();
                        continue; // dropped before any state is built
                    }
                    if stream.set_nonblocking(true).is_err() {
                        m.conn_read_err.inc();
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let now_active = self.shared.active.fetch_add(1, Ordering::Relaxed) + 1;
                    m.conn_opened(now_active as u64);
                    // Round-robin across loops, skipping any that died (a
                    // wait error exits a loop; its inbox bounces sends).
                    // This loop is alive by construction — it is running
                    // this code — so a bounced stream always finds a home.
                    let base = self.shared.next_loop.fetch_add(1, Ordering::Relaxed);
                    let nloops = self.shared.loops.len();
                    let mut stream = Some(stream);
                    for k in 0..nloops {
                        let target = (base + k) % nloops;
                        if target == self.idx {
                            break; // adopt locally below
                        }
                        match self.shared.loops[target]
                            .try_send(LoopMsg::Adopt(stream.take().expect("unplaced")))
                        {
                            Ok(()) => break,
                            Err(LoopMsg::Adopt(s)) => stream = Some(s),
                            Err(_) => unreachable!("adopt bounced as another message"),
                        }
                    }
                    if let Some(s) = stream {
                        self.adopt(s);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if self.draining {
            self.release_active();
            return;
        }
        let fd = stream.as_raw_fd();
        let token = self.slab.insert(stream);
        if self.poller.add(fd, token, EV_READ).is_err() {
            self.slab.remove(token);
            self.release_active();
            return;
        }
        let conn = self.slab.get_mut(token).expect("just inserted");
        conn.interest = EV_READ;
    }

    /// Decrement the global active-connection ledger and mirror the gauge.
    fn release_active(&self) {
        let now = self.shared.active.fetch_sub(1, Ordering::Relaxed) - 1;
        self.shared.server.metrics().set_conn_active(now as u64);
    }

    /// Route a completion into its connection's sequencer slot. Stale
    /// tokens (the connection died first) drop the line on the floor.
    fn complete(&mut self, token: u64, seq: u64, line: String) {
        let shared = Arc::clone(&self.shared);
        let me = Arc::clone(&self.me);
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        conn.fulfill(seq, line);
        pump(&shared, &me, conn);
        self.settle(token);
    }

    /// Apply one readiness event to a connection.
    fn touch(&mut self, token: u64, ev: Event) {
        let shared = Arc::clone(&self.shared);
        let me = Arc::clone(&self.me);
        let draining = self.draining;
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        if ev.error {
            conn.death = Some(Death::ReadErr);
            self.settle(token);
            return;
        }
        if ev.readable {
            if conn.interest & EV_READ == 0 {
                // Read interest is parked, yet the fd woke us: that is a
                // hangup (HUP is unmaskable). Sound only because readiness
                // events are handled before inbox messages each tick, so
                // `conn.interest` here is exactly the mask armed when
                // wait() captured this event — nothing has parked it in
                // between. The peer is gone; whatever we still owe it has
                // no reader.
                conn.death = Some(if conn.out_len() > 0 || conn.unfulfilled() > 0 {
                    Death::WriteErr
                } else {
                    Death::Clean
                });
                self.settle(token);
                return;
            }
            read_some(conn, draining);
        }
        if conn.death.is_none() {
            pump(&shared, &me, conn);
        }
        self.settle(token);
    }

    /// Post-IO bookkeeping: close the dead, re-arm interest for the living.
    fn settle(&mut self, token: u64) {
        let draining = self.draining;
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        if conn.death.is_none()
            && conn.read_closed
            && conn.out_len() == 0
            && conn.unfulfilled() == 0
            && conn.rbuf.is_empty()
        {
            conn.death = Some(Death::Clean);
        }
        if let Some(cause) = conn.death {
            self.close(token, cause);
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let desired = conn.desired_interest(draining);
        if desired != conn.interest {
            if self.poller.modify(fd, token, desired).is_err() {
                self.close(token, Death::ReadErr);
                return;
            }
            let conn = self.slab.get_mut(token).expect("still live");
            conn.interest = desired;
        }
    }

    fn close(&mut self, token: u64, fallback: Death) {
        let Some(conn) = self.slab.remove(token) else {
            return;
        };
        let cause = conn.death.unwrap_or(fallback);
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        drop(conn);
        let m = self.shared.server.metrics();
        match cause {
            Death::ReadErr => m.conn_read_err.inc(),
            Death::WriteErr => m.conn_write_err.inc(),
            Death::Clean => {}
        }
        self.release_active();
    }

    /// Un-park admission-paused connections once the queue has drained to
    /// the hysteresis floor, replaying their buffered lines.
    fn resume_paused(&mut self) {
        let any = self.slab.slots.iter().flatten().any(|c| c.admission_paused);
        if !any {
            return;
        }
        if self.shared.server.queue_depth() > self.shared.queue_resume {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let me = Arc::clone(&self.me);
        for token in self.slab.tokens() {
            let Some(conn) = self.slab.get_mut(token) else {
                continue;
            };
            if !conn.admission_paused {
                continue;
            }
            conn.admission_paused = false;
            pump(&shared, &me, conn);
            self.settle(token);
        }
    }
}

/// Drain the socket into the connection's read buffer until `WouldBlock`,
/// EOF, or `RBUF_CAP` buffered bytes. Past the cap the rest stays in the
/// kernel until the parser has consumed what is buffered; the poller is
/// level-triggered, so it reports the socket again. A full buffer without
/// one complete line is an oversized frame; it and transport errors mark
/// the connection dead.
fn read_some(conn: &mut Conn, draining: bool) {
    if draining {
        return;
    }
    let mut buf = [0u8; 16 * 1024];
    while conn.rbuf.len() < RBUF_CAP {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                conn.eof = true;
                return;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.death = Some(Death::ReadErr);
                return;
            }
        }
    }
    if !conn.rbuf.contains(&b'\n') {
        conn.death = Some(Death::ReadErr);
    }
}

/// Alternate flushing and line processing until neither makes progress.
/// This loop is load-bearing: a flush can empty the outbound buffer below
/// the low-water mark and un-park the write side while parsed-but-unserved
/// lines still sit in `rbuf` — with the socket already drained, no
/// readiness event will ever revisit them, so the pump must finish the job
/// here rather than wait on the poller.
fn pump(shared: &ReactorShared, me: &Arc<LoopShared>, conn: &mut Conn) {
    loop {
        try_flush(conn);
        if conn.death.is_some() || conn.write_paused {
            return;
        }
        let before = (conn.rbuf.len(), conn.out_len(), conn.unfulfilled());
        process_lines(shared, me, conn);
        if conn.death.is_some() {
            return;
        }
        try_flush(conn);
        if (conn.rbuf.len(), conn.out_len(), conn.unfulfilled()) == before {
            return;
        }
    }
}

/// Parse and dispatch every complete line in the read buffer, stopping at
/// a backpressure boundary (full admission queue or a high outbound
/// buffer). Unconsumed lines stay buffered for the resume path.
fn process_lines(shared: &ReactorShared, me: &Arc<LoopShared>, conn: &mut Conn) {
    let mut start = 0;
    while conn.death.is_none() {
        if conn.out_len() > WRITE_HIGH_WATER {
            if !conn.write_paused {
                conn.write_paused = true;
                shared.server.metrics().conn_write_backpressure.inc();
            }
            break;
        }
        // A line normally ends at '\n'; once the peer half-closes, the
        // residual unterminated bytes count as a final line too — the old
        // thread-per-connection front-end served that trailing fragment,
        // so byte-compatibility requires the reactor to as well. `next` is
        // the consume cursor: one past the newline, or the buffer end for
        // the terminal fragment.
        let (end, next) = match conn.rbuf[start..].iter().position(|&b| b == b'\n') {
            Some(nl) => (start + nl, start + nl + 1),
            None if conn.eof && start < conn.rbuf.len() => (conn.rbuf.len(), conn.rbuf.len()),
            None => break,
        };
        let mut line_end = end;
        if line_end > start && conn.rbuf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        let Ok(line) = std::str::from_utf8(&conn.rbuf[start..line_end]) else {
            conn.death = Some(Death::ReadErr);
            break;
        };
        match parse_request(line, shared.server.sample_len()) {
            Request::Empty => {}
            Request::Stats => {
                let seq = conn.alloc_seq();
                // The exposition carries its own "# EOF\n" terminator; it
                // enters the sequencer like any response and streams out
                // under write-readiness.
                conn.fulfill(seq, shared.server.exposition());
            }
            Request::Immediate(reply) => {
                let seq = conn.alloc_seq();
                conn.fulfill(seq, reply + "\n");
            }
            Request::Submit { id, input } => {
                // Admission backpressure: a full queue parks this line (and
                // everything after it) in the buffer instead of feeding the
                // shed ladder; kernel socket buffers hold the rest.
                if shared.server.queue_depth() >= shared.queue_cap {
                    if !conn.admission_paused {
                        conn.admission_paused = true;
                        shared.server.metrics().conn_admission_pause.inc();
                    }
                    break;
                }
                let seq = conn.alloc_seq();
                let me = Arc::clone(me);
                let token = conn.token;
                let cb = move |result: Result<Response, ShedReason>| {
                    let rendered = match result {
                        Ok(resp) => ok_line(id, &resp),
                        Err(reason) => error_line(id, &format!("shed:{reason}")),
                    };
                    // A bounce means the owning loop exited and took the
                    // connection with it: drop, like any stale token.
                    let _ = me.try_send(LoopMsg::Complete {
                        token,
                        seq,
                        line: rendered + "\n",
                    });
                };
                // Err means the callback will never run: the refusal is
                // rendered here, inline, keeping the slot single-sourced.
                if let Err(reason) = shared.server.submit_with(input, cb) {
                    conn.fulfill(seq, error_line(id, &format!("shed:{reason}")) + "\n");
                }
            }
        }
        start = next;
    }
    if start > 0 {
        conn.rbuf.drain(..start);
    }
}

/// Push owed bytes at the socket until it stops taking them. Clears the
/// write-backpressure park at the low-water mark.
fn try_flush(conn: &mut Conn) {
    while conn.wpos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.wpos..]) {
            Ok(0) => {
                conn.death = Some(Death::WriteErr);
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.death = Some(Death::WriteErr);
                return;
            }
        }
    }
    if conn.wpos == conn.out.len() {
        conn.out.clear();
        conn.wpos = 0;
    } else if conn.wpos > 64 * 1024 {
        conn.out.drain(..conn.wpos);
        conn.wpos = 0;
    }
    if conn.write_paused && conn.out_len() <= WRITE_LOW_WATER {
        conn.write_paused = false;
    }
}
