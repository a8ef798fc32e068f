//! The load generator. In the open loop each connection follows a fixed
//! schedule of due times and every request is timed from when it was due;
//! in the closed loop each connection keeps a fixed number of requests in
//! flight.
//!
//! One connection is served sequentially by one front-end worker, so a
//! request due while the previous one on its connection is outstanding would
//! wait behind it in the socket anyway. The open loop holds such a request
//! until the reply arrives and still times it from its due time, so the
//! recorded latency includes the wait a stall imposes on later requests.
//! Each connection is driven by one thread with blocking I/O; a workload
//! never uses more connections (or threads) than the machine has cores.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// What a request exercises; also how its reply is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    QueryK,
    Insert,
    Remove,
    Checkpoint,
}

impl Kind {
    pub fn is_read(self) -> bool {
        matches!(self, Kind::Query | Kind::QueryK)
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Offset of the due time from the phase start.
    pub due: Duration,
    pub kind: Kind,
    pub line: String,
    /// Index into the workload's probe/row pool, for the output checks.
    pub item: usize,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub kind: Kind,
    pub item: usize,
    pub due: Instant,
    pub sent: Instant,
    /// When the reply arrived; `None` on timeout or connection failure.
    pub done: Option<Instant>,
    /// How late the generator itself was: send time minus the later of the
    /// due time and the previous reply.
    pub late: Duration,
    pub reply: String,
}

impl Outcome {
    /// A request fails unless its reply starts with `OK`: `ERR`, `RETRY`,
    /// a timeout and a broken connection all count.
    pub fn ok(&self) -> bool {
        self.done.is_some() && self.reply.starts_with("OK")
    }

    /// Latency from the due time, in seconds.
    pub fn latency_s(&self) -> Option<f64> {
        self.done
            .map(|done| done.saturating_duration_since(self.due).as_secs_f64())
    }
}

/// Requests evenly spaced at `rate` per second for `seconds`, each built by
/// `make`.
pub fn evenly(
    rate: f64,
    seconds: f64,
    mut make: impl FnMut() -> (Kind, String, usize),
) -> Vec<Request> {
    let count = (rate * seconds).round().max(1.0) as usize;
    (0..count)
        .map(|index| {
            let (kind, line, item) = make();
            Request {
                due: Duration::from_secs_f64(index as f64 / rate),
                kind,
                line,
                item,
            }
        })
        .collect()
}

/// Sleeps until `due`. The generator never spins: its threads share the
/// cores with the server, so timer slack shows up as reported lateness
/// instead of as stolen server time.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

type Connection = (TcpStream, BufReader<TcpStream>);

fn connect(addr: &str) -> Option<Connection> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok()?;
    let reader = BufReader::new(stream.try_clone().ok()?);
    Some((stream, reader))
}

/// Sends one request and waits for its reply. A timeout or I/O error drops
/// the connection, so every later request on it fails too.
fn exchange(
    connection: &mut Option<Connection>,
    request: &Request,
    due: Instant,
    previous_done: Instant,
) -> Outcome {
    let mut outcome = Outcome {
        kind: request.kind,
        item: request.item,
        due,
        sent: due,
        done: None,
        late: Duration::ZERO,
        reply: String::new(),
    };
    let Some((writer, reader)) = connection.as_mut() else {
        return outcome;
    };
    wait_until(due);
    outcome.sent = Instant::now();
    outcome.late = outcome
        .sent
        .saturating_duration_since(due.max(previous_done));
    let result = writer
        .write_all(format!("{}\n", request.line).as_bytes())
        .and_then(|()| reader.read_line(&mut outcome.reply));
    match result {
        Ok(read) if read > 0 => outcome.done = Some(Instant::now()),
        _ => *connection = None,
    }
    outcome.reply.truncate(outcome.reply.trim_end().len());
    outcome
}

fn quit(connection: Option<Connection>) {
    if let Some((mut writer, _)) = connection {
        let _ = writer.write_all(b"QUIT\n");
    }
}

fn drive(addr: &str, schedule: &[Request], origin: Instant) -> Vec<Outcome> {
    let mut connection = connect(addr);
    let mut previous_done = origin;
    let mut outcomes = Vec::with_capacity(schedule.len());
    for request in schedule {
        let outcome = exchange(
            &mut connection,
            request,
            origin + request.due,
            previous_done,
        );
        previous_done = outcome.done.unwrap_or(outcome.sent);
        outcomes.push(outcome);
    }
    quit(connection);
    outcomes
}

/// Closed loop: cycles through `requests`, keeping `depth` of them in
/// flight (a new one goes out as each reply arrives), until `seconds` have
/// passed; then drains. Each request is due when it is sent, so its latency
/// is send to reply, including the wait behind the others in flight.
fn saturate(
    addr: &str,
    requests: &[Request],
    origin: Instant,
    seconds: f64,
    depth: usize,
) -> Vec<Outcome> {
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut outcomes = Vec::new();
    let (Some((mut writer, mut reader)), false) = (connect(addr), requests.is_empty()) else {
        return outcomes;
    };
    wait_until(origin);
    let mut next = requests.iter().cycle();
    let mut in_flight: VecDeque<Outcome> = VecDeque::new();
    let mut broken = false;
    loop {
        while !broken && in_flight.len() < depth.max(1) && Instant::now() < deadline {
            let request = next.next().expect("a non-empty cycle");
            let sent = Instant::now();
            broken = writer
                .write_all(format!("{}\n", request.line).as_bytes())
                .is_err();
            let outcome = Outcome {
                kind: request.kind,
                item: request.item,
                due: sent,
                sent,
                done: None,
                late: Duration::ZERO,
                reply: String::new(),
            };
            in_flight.push_back(outcome);
        }
        let Some(mut outcome) = in_flight.pop_front() else {
            break;
        };
        if !broken {
            match reader.read_line(&mut outcome.reply) {
                Ok(read) if read > 0 => outcome.done = Some(Instant::now()),
                _ => broken = true,
            }
        }
        outcome.reply.truncate(outcome.reply.trim_end().len());
        outcomes.push(outcome);
    }
    quit(Some((writer, reader)));
    outcomes
}

/// Per connection, either a fixed schedule (open loop) or a request cycle
/// kept `depth` deep in flight for a number of seconds (closed loop).
pub enum Load {
    Schedule(Vec<Request>),
    Saturate {
        requests: Vec<Request>,
        seconds: f64,
        depth: usize,
    },
}

/// Runs one load per connection (at most one per core), all starting at the
/// same origin shortly after the call, and returns each connection's
/// outcomes in order.
pub fn run_loads(addr: &str, loads: &[Load]) -> Vec<Vec<Outcome>> {
    let origin = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = loads
            .iter()
            .map(|load| {
                scope.spawn(move || match load {
                    Load::Schedule(schedule) => drive(addr, schedule, origin),
                    Load::Saturate {
                        requests,
                        seconds,
                        depth,
                    } => saturate(addr, requests, origin, *seconds, *depth),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("load connection thread panicked"))
            .collect()
    })
}

/// [`run_loads`] with a fixed schedule on every connection.
pub fn run(addr: &str, schedules: &[Vec<Request>]) -> Vec<Vec<Outcome>> {
    let loads: Vec<Load> = schedules.iter().cloned().map(Load::Schedule).collect();
    run_loads(addr, &loads)
}

/// Sends one request on a fresh connection and returns the reply (set-up,
/// `STATS`, checks).
pub fn request(addr: &str, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(format!("{line}\nQUIT\n").as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

/// Reads `<name> <value>` out of a `STATS` reply.
pub fn stat(reply: &str, name: &str) -> Option<u64> {
    let fields: Vec<&str> = reply.split_whitespace().collect();
    let at = fields.iter().position(|field| *field == name)?;
    fields.get(at + 1)?.parse().ok()
}

/// Latency summary of a set of outcomes, over the kinds `select` admits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    pub p50_s: f64,
    /// The 95th and 99th percentiles; over a sample spanning two or more
    /// whole tail windows, the median of the windows' percentiles.
    pub p95_s: f64,
    pub p99_s: f64,
    /// Highest generator lateness, seconds.
    pub late_max_s: f64,
    /// Replies per second over the span from the first due time to the last
    /// reply; below the offered rate when a backlog grows.
    pub achieved_per_s: f64,
}

/// Summarizes the outcomes of the kinds `select` admits. The tail is taken
/// per `window` of due time (see [`Summary::p99_s`]).
pub fn summarize<'a>(
    outcomes: impl IntoIterator<Item = &'a Outcome>,
    select: impl Fn(Kind) -> bool,
    window: Duration,
) -> Summary {
    summarize_blocks([outcomes], select, window)
}

/// [`summarize`] over blocks of load run one after another. Tail windows are
/// counted from each block's own first due time, so no window straddles the
/// gap between two blocks, and the achieved rate is over the blocks' own
/// spans.
pub fn summarize_blocks<'a, B: IntoIterator<Item = &'a Outcome>>(
    blocks: impl IntoIterator<Item = B>,
    select: impl Fn(Kind) -> bool,
    window: Duration,
) -> Summary {
    // A failed request misses every latency limit.
    let latency = |outcome: &Outcome| {
        if outcome.ok() {
            outcome.latency_s().unwrap_or(f64::INFINITY)
        } else {
            f64::INFINITY
        }
    };
    let finite = |value: f64| {
        if value.is_finite() {
            value
        } else {
            REPLY_TIMEOUT.as_secs_f64()
        }
    };
    let mut chosen: Vec<&Outcome> = Vec::new();
    let mut span_s = 0.0;
    // The tail is the median of the per-window p99s when the sample spans
    // at least two whole windows: one stall of the shared machine then moves
    // one window's p99, not the reported tail.
    let mut whole: Vec<Vec<f64>> = Vec::new();
    for block in blocks {
        let block: Vec<&Outcome> = block
            .into_iter()
            .filter(|outcome| select(outcome.kind))
            .collect();
        let (Some(first), Some(last)) = (
            block.iter().map(|outcome| outcome.due).min(),
            block.iter().filter_map(|outcome| outcome.done).max(),
        ) else {
            chosen.extend(block);
            continue;
        };
        span_s += last.saturating_duration_since(first).as_secs_f64();
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for outcome in &block {
            let index = (outcome.due.saturating_duration_since(first).as_secs_f64()
                / window.as_secs_f64()) as usize;
            if windows.len() <= index {
                windows.resize(index + 1, Vec::new());
            }
            windows[index].push(latency(outcome));
        }
        let per_window = block.len() / windows.len().max(1);
        whole.extend(
            windows
                .into_iter()
                .filter(|window| window.len() * 2 >= per_window),
        );
        chosen.extend(block);
    }
    let latencies: Vec<f64> = chosen.iter().map(|outcome| latency(outcome)).collect();
    let tail = |q: f64| {
        if whole.len() >= 2 {
            let per_window: Vec<f64> = whole
                .iter()
                .map(|window| crate::report::percentile(window, q))
                .collect();
            crate::report::median(&per_window)
        } else {
            crate::report::percentile(&latencies, q)
        }
    };
    Summary {
        attempted: chosen.len(),
        failed: chosen.iter().filter(|outcome| !outcome.ok()).count(),
        p50_s: finite(crate::report::percentile(&latencies, 50.0)),
        p95_s: finite(tail(95.0)),
        p99_s: finite(tail(99.0)),
        late_max_s: chosen
            .iter()
            .map(|outcome| outcome.late.as_secs_f64())
            .fold(0.0, f64::max),
        achieved_per_s: if span_s > 0.0 {
            chosen.len() as f64 / span_s
        } else {
            0.0
        },
    }
}
