//! The open-loop load generator: one thread drives every connection.
//!
//! Requests are sent on a precomputed schedule, pipelined on their
//! connection, and each is timed from its *due* time, so a stall charges
//! its wait to every request due after it. The generator also records
//! when it actually sent each request, which gives how late it ran. The
//! server answers each connection's frames in order, so replies are
//! matched to requests first-in first-out.
//!
//! Waiting uses `ppoll(2)` over all sockets with a nanosecond timeout up
//! to the next due time: one thread can then send on time and timestamp
//! replies as they arrive, without a reader thread per connection.

use at_serve::proto::{self, Frame};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What a request is, for classifying its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `LocalizeKey`, answered by `Fix`.
    Fix,
    /// A keyed spectrum submission, answered by `SubmitAck`.
    Submit,
    /// `Ping`, answered by `Pong` (the tests' stand-in server speaks
    /// only this).
    #[cfg(test)]
    Ping,
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Due time, offset from the start of the run.
    pub due: Duration,
    /// Index into the connection's frame table.
    pub frame: usize,
    /// Request kind.
    pub kind: Kind,
    /// Caller's tag (e.g. the key's expected-fix slot), echoed in the
    /// outcome.
    pub tag: usize,
    /// Phase the request belongs to.
    pub phase: usize,
}

/// How a request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A fix; its coordinates and likelihood, bit for bit.
    Fix([u64; 3]),
    /// A submission acknowledged.
    Ack,
    /// A ping answered.
    #[cfg(test)]
    Pong,
    /// Any refusal or error frame (`Failed`, `Overloaded`,
    /// `DeadlineExceeded`, `ProtocolError`, `ShuttingDown`, or an
    /// unexpected frame), described.
    Refused(String),
}

/// One request's timing and reply.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The scheduled request.
    pub op: Op,
    /// When the generator wrote it, offset from the start.
    pub sent: Duration,
    /// When its reply arrived, offset from the start.
    pub received: Duration,
    /// The reply.
    pub reply: Reply,
    /// Requests outstanding on the connection when this one was sent.
    pub outstanding: usize,
}

impl Outcome {
    /// Latency from the due time, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.received.saturating_sub(self.op.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.op.due).as_secs_f64() * 1e3
    }
}

/// One pipelined connection with its frame table and schedule.
pub struct Conn {
    stream: TcpStream,
    frames: Vec<Vec<u8>>,
    ops: Vec<Op>,
    next: usize,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    pending: VecDeque<(usize, Duration, usize)>,
    outcomes: Vec<Outcome>,
}

impl Conn {
    /// Wraps a connected socket. `frames` are the pre-encoded request
    /// frames the schedule ([`Conn::schedule`]) refers to.
    pub fn new(stream: TcpStream, frames: Vec<Vec<u8>>) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            frames,
            ops: Vec::new(),
            next: 0,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            outcomes: Vec::new(),
        })
    }

    /// Replaces the schedule for the next [`drive`] call, keeping the
    /// connection and its frame table. `ops` must be sorted by due time.
    pub fn schedule(&mut self, ops: Vec<Op>) {
        assert!(
            self.pending.is_empty(),
            "reschedule with requests in flight"
        );
        debug_assert!(ops.windows(2).all(|w| w[0].due <= w[1].due));
        self.ops = ops;
        self.next = 0;
        self.outcomes.clear();
    }

    /// The outcomes of the last [`drive`] call, in send order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    fn done(&self) -> bool {
        self.next == self.ops.len() && self.pending.is_empty()
    }

    fn next_due(&self) -> Option<Duration> {
        self.ops.get(self.next).map(|o| o.due)
    }

    fn send_due(&mut self, now: Duration) -> io::Result<()> {
        while let Some(op) = self.ops.get(self.next) {
            if op.due > now {
                break;
            }
            self.out.extend_from_slice(&self.frames[op.frame]);
            self.pending.push_back((self.next, now, self.pending.len()));
            self.next += 1;
        }
        self.flush()
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Reads whatever the socket holds into `inbuf`.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn receive(&mut self, now: Duration) -> io::Result<()> {
        self.fill()?;
        let mut used = 0;
        while let Some((frame, n)) = proto::decode(&self.inbuf[used..])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            used += n;
            let (idx, sent, outstanding) = self.pending.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "reply without a request")
            })?;
            let op = self.ops[idx];
            self.outcomes.push(Outcome {
                op,
                sent,
                received: now,
                reply: classify(op.kind, frame),
                outstanding,
            });
        }
        self.inbuf.drain(..used);
        Ok(())
    }
}

fn classify(kind: Kind, frame: Frame) -> Reply {
    match (kind, frame) {
        (
            Kind::Fix,
            Frame::Fix {
                x, y, likelihood, ..
            },
        ) => Reply::Fix([x.to_bits(), y.to_bits(), likelihood.to_bits()]),
        (Kind::Submit, Frame::SubmitAck { .. }) => Reply::Ack,
        #[cfg(test)]
        (Kind::Ping, Frame::Pong { .. }) => Reply::Pong,
        (_, Frame::Failed { error }) => Reply::Refused(format!("failed: {error}")),
        (_, Frame::Overloaded { .. }) => Reply::Refused("overloaded".into()),
        (_, Frame::DeadlineExceeded) => Reply::Refused("deadline exceeded".into()),
        (_, Frame::ProtocolError { code, message }) => {
            Reply::Refused(format!("protocol error {code}: {message}"))
        }
        (_, Frame::ShuttingDown) => Reply::Refused("shutting down".into()),
        (kind, other) => Reply::Refused(format!("unexpected reply to {kind:?}: {other:?}")),
    }
}

/// Runs every connection's schedule to completion, starting the clock at
/// `start`, calling `tick` every 50 ms. Returns the peak resident set of
/// this process seen meanwhile, MiB. Fails on any I/O error, or when
/// replies stop arriving for `stall_limit`.
pub fn drive(
    conns: &mut [&mut Conn],
    start: Instant,
    stall_limit: Duration,
    tick: &mut dyn FnMut(),
) -> io::Result<f64> {
    let mut rss_peak_mb = 0.0f64;
    let mut last_progress = Instant::now();
    let mut next_tick = Duration::ZERO;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: 0,
            revents: 0,
        })
        .collect();
    loop {
        let now = start.elapsed();
        if now >= next_tick {
            rss_peak_mb = rss_peak_mb.max(rss_mb());
            tick();
            next_tick = now + Duration::from_millis(50);
        }
        for c in conns.iter_mut() {
            c.send_due(now)?;
        }
        if conns.iter().all(|c| c.done()) {
            rss_peak_mb = rss_peak_mb.max(rss_mb());
            return Ok(rss_peak_mb);
        }
        let now = start.elapsed();
        let wake = conns
            .iter()
            .filter_map(|c| c.next_due())
            .min()
            .map_or(Duration::from_millis(50), |due| due.saturating_sub(now))
            .min(Duration::from_millis(50));
        for (fd, c) in fds.iter_mut().zip(conns.iter()) {
            fd.events = POLLIN | if c.out.is_empty() { 0 } else { POLLOUT };
            fd.revents = 0;
        }
        let ready = poll(&mut fds, wake)?;
        if ready == 0 {
            if conns.iter().any(|c| !c.pending.is_empty()) && last_progress.elapsed() > stall_limit
            {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no reply for {stall_limit:?}"),
                ));
            }
            continue;
        }
        let now = start.elapsed();
        for (fd, c) in fds.iter().zip(conns.iter_mut()) {
            if fd.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                let before = c.outcomes.len();
                c.receive(now)?;
                if c.outcomes.len() > before {
                    last_progress = Instant::now();
                }
            }
            if fd.revents & POLLOUT != 0 {
                c.flush()?;
            }
        }
    }
}

/// Sends one frame on an idle connection and waits for its reply.
pub fn request(conn: &mut Conn, frame: &Frame, timeout: Duration) -> io::Result<Frame> {
    assert!(conn.pending.is_empty(), "request on a busy connection");
    conn.out.extend_from_slice(&frame.encode());
    let deadline = Instant::now() + timeout;
    loop {
        conn.flush()?;
        if let Some((frame, n)) = proto::decode(&conn.inbuf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            conn.inbuf.drain(..n);
            return Ok(frame);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
        }
        let mut fd = [PollFd {
            fd: conn.stream.as_raw_fd(),
            events: POLLIN | if conn.out.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        }];
        if poll(&mut fd, left)? > 0 && fd[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            conn.fill()?;
        }
    }
}

/// Resident set size of this process, MiB (0 where `/proc` is absent).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4096.0 / (1024.0 * 1024.0))
}

/// CPU seconds this process has run so far, all threads, live and
/// exited. Unlike wall time it leaves out the time the host hands the
/// CPUs to other tenants.
pub fn process_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run so far.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (x86-64/aarch64 Linux: two 64-bit fields); the kernel only writes
    // it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds run so far by this process's live threads whose name
/// starts with one of `prefixes`, from `/proc/self/task/*/schedstat`
/// (nanoseconds; 0 where `/proc` is absent).
pub fn threads_cpu_seconds(prefixes: &[&str]) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|task| {
            let dir = task.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            if !prefixes.iter().any(|p| name.starts_with(p)) {
                return None;
            }
            let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    ns as f64 * 1e-9
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits up to `timeout` for any of `fds` to become ready; returns how
/// many are.
fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // `PollFd`s laid out as the C `struct pollfd` (`#[repr(C)]`, int +
    // short + short); `ts` is a valid `struct timespec` (x86-64/aarch64
    // Linux: two 64-bit fields) that outlives the call; a null signal
    // mask leaves the mask unchanged. The kernel writes only `revents`.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(n as usize)
}

/// Evenly spaced due times: `count` requests at `rate` per second from
/// `offset`.
pub fn paced(offset: Duration, rate: f64, count: usize) -> impl Iterator<Item = Duration> {
    (0..count).map(move |i| offset + Duration::from_secs_f64(i as f64 / rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// A stand-in server that answers pings in order and stalls once,
    /// before answering the request with token `stall_at`.
    fn stalling_server(
        stall_at: u64,
        stall: Duration,
    ) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let h = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.set_nodelay(true).expect("nodelay");
            while let Ok(Some(frame)) = proto::read_frame(&mut s) {
                if let Frame::Ping { token } = frame {
                    if token == stall_at {
                        thread::sleep(stall);
                    }
                    proto::write_frame(&mut s, &Frame::Pong { token }).expect("write");
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn a_stall_is_charged_to_every_later_request() {
        let stall = Duration::from_millis(60);
        let (addr, server) = stalling_server(2, stall);
        let n = 10;
        let frames = (0..n as u64)
            .map(|t| Frame::Ping { token: t }.encode())
            .collect();
        let ops = paced(Duration::from_millis(5), 500.0, n)
            .enumerate()
            .map(|(i, due)| Op {
                due,
                frame: i,
                kind: Kind::Ping,
                tag: i,
                phase: 0,
            })
            .collect();
        let mut conn = Conn::new(TcpStream::connect(addr).expect("connect"), frames).expect("conn");
        conn.schedule(ops);
        drive(
            &mut [&mut conn],
            Instant::now(),
            Duration::from_secs(5),
            &mut || (),
        )
        .expect("drive");
        let out = conn.outcomes().to_vec();
        drop(conn);
        server.join().expect("server");

        assert_eq!(out.len(), n);
        assert!(out.iter().all(|o| o.reply == Reply::Pong));
        // Request 2 and every request due during the stall waited for it:
        // all were answered only after request 2's reply, so their latency
        // from the due time covers the rest of the stall.
        let release = out[2].received;
        assert!(out[2].latency_ms() >= stall.as_secs_f64() * 1e3);
        for o in &out[2..] {
            assert!(o.received >= release);
            let charged = release.saturating_sub(o.op.due);
            assert!(o.latency_ms() >= charged.as_secs_f64() * 1e3);
        }
        // Requests due 2 ms apart inside a 60 ms stall all see most of it.
        assert!(
            out[9].latency_ms() > 30.0,
            "late request latency {}",
            out[9].latency_ms()
        );
        // The generator kept sending on schedule through the stall: the
        // wait is the server's, not the generator's.
        assert!(out.iter().all(|o| o.lag_ms() < 20.0));
        // Pipelining: requests went out while request 2 was unanswered.
        assert!(out[5].outstanding >= 2);
    }

    #[test]
    fn replies_are_timestamped_when_they_arrive() {
        let (addr, server) = stalling_server(u64::MAX, Duration::ZERO);
        let n = 20;
        let frames = (0..n as u64)
            .map(|t| Frame::Ping { token: t }.encode())
            .collect();
        let ops = paced(Duration::from_millis(1), 100.0, n)
            .enumerate()
            .map(|(i, due)| Op {
                due,
                frame: i,
                kind: Kind::Ping,
                tag: i,
                phase: 0,
            })
            .collect();
        let mut conn = Conn::new(TcpStream::connect(addr).expect("connect"), frames).expect("conn");
        conn.schedule(ops);
        drive(
            &mut [&mut conn],
            Instant::now(),
            Duration::from_secs(5),
            &mut || (),
        )
        .expect("drive");
        let rtts: Vec<f64> = conn
            .outcomes()
            .iter()
            .map(|o| (o.received - o.sent).as_secs_f64() * 1e3)
            .collect();
        drop(conn);
        server.join().expect("server");
        // Requests 10 ms apart: a reply noticed only at the next send
        // would read ~10 ms.
        assert!(crate::stats::median(&rtts) < 2.0, "rtts {rtts:?}");
    }

    #[test]
    fn request_answers_on_an_idle_connection() {
        let (addr, server) = stalling_server(u64::MAX, Duration::ZERO);
        let stream = TcpStream::connect(addr).expect("connect");
        let mut conn = Conn::new(stream, Vec::new()).expect("conn");
        let reply = request(&mut conn, &Frame::Ping { token: 9 }, Duration::from_secs(5));
        assert_eq!(reply.expect("reply"), Frame::Pong { token: 9 });
        drop(conn);
        server.join().expect("server");
    }

    #[test]
    fn paced_schedule_is_even() {
        let v: Vec<_> = paced(Duration::from_millis(1), 1000.0, 3).collect();
        assert_eq!(
            v,
            vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(3)
            ]
        );
    }
}
