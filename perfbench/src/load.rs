//! Load generation: closed-loop streams (one request in flight per
//! connection) and the open-loop probe schedule.

use crate::daemon::Client;
use chain2l_service::frame::FrameDecoder;
use chain2l_service::protocol::{self, Request, Response, SolveResult, SolveSpec};
use mio_lite::{Events, Interest, Poll, Token};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long after its last due send the probe generator waits for replies.
const PROBE_DRAIN: Duration = Duration::from_secs(60);

/// One solve request and its encoded frame.
pub struct Wire {
    /// The request id the frame carries.
    pub id: u64,
    /// What the request solves.
    pub spec: SolveSpec,
    /// The frame, newline included.
    pub line: Vec<u8>,
}

impl Wire {
    /// Encodes a solve of `spec` with id `id`.
    pub fn solve(id: u64, spec: &SolveSpec) -> Wire {
        let mut line = protocol::encode_request(&Request::Solve { id, spec: spec.clone() });
        line.push('\n');
        Wire { id, spec: spec.clone(), line: line.into_bytes() }
    }
}

/// What happened to one request.
pub struct Sample {
    /// The request id.
    pub id: u64,
    /// When the request was due: its send time in a closed loop, its
    /// scheduled time in an open loop.
    pub due: Instant,
    /// When it was written.
    pub sent: Instant,
    /// When its reply was read; `None` if it never was.
    pub done: Option<Instant>,
    /// The solve result, or why the request failed.
    pub reply: Result<SolveResult, String>,
}

impl Sample {
    fn unanswered(id: u64, at: Instant, why: &str) -> Sample {
        Sample { id, due: at, sent: at, done: None, reply: Err(why.to_string()) }
    }

    /// Time from due to reply.
    pub fn latency(&self) -> Option<Duration> {
        Some(self.done?.saturating_duration_since(self.due))
    }
}

fn outcome(reply: &str, id: u64) -> Result<SolveResult, String> {
    match protocol::parse_response(reply) {
        Ok(Response::Solve { id: got, result }) if got == id => Ok(result),
        Ok(Response::Error { message, .. }) => Err(message),
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(format!("unparseable reply ({e}): {reply}")),
    }
}

/// Sends `requests` one at a time on one connection, each after the
/// previous reply.  A transport failure fails the request and every
/// request after it.
pub fn closed_loop(addr: SocketAddr, requests: &[Wire]) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(requests.len());
    let mut client = Client::connect(addr);
    for wire in requests {
        let Ok(conn) = client.as_mut() else {
            samples.push(Sample::unanswered(wire.id, Instant::now(), "connection lost"));
            continue;
        };
        let sent = Instant::now();
        let reply = conn.send(&wire.line).and_then(|()| conn.receive());
        let done = Instant::now();
        match reply {
            Ok(line) => samples.push(Sample {
                id: wire.id,
                due: sent,
                sent,
                done: Some(done),
                reply: outcome(&line, wire.id),
            }),
            Err(e) => {
                samples.push(Sample::unanswered(wire.id, sent, &e.to_string()));
                client = Err(e);
            }
        }
    }
    samples
}

/// The probes' samples and how late each send was, in milliseconds.
pub struct ProbeRun {
    /// One sample per probe, latency measured from its due time.
    pub samples: Vec<Sample>,
    /// Actual send time minus due time of every probe sent.
    pub lag_ms: Vec<f64>,
}

/// Sends probe `i` at `start + i·interval` whatever the replies, reading
/// replies as they come.  The generator sleeps in `poll` until the next
/// due send (rounded up to the millisecond) or a reply, whichever is first.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Wire],
    start: Instant,
    interval: Duration,
) -> ProbeRun {
    let due = |i: usize| start + interval * i as u32;
    let mut run = ProbeRun {
        samples: requests
            .iter()
            .enumerate()
            .map(|(i, w)| Sample::unanswered(w.id, due(i), "no reply"))
            .collect(),
        lag_ms: Vec::with_capacity(requests.len()),
    };
    if let Err(e) = drive_probes(addr, requests, &due, &mut run) {
        for sample in run.samples.iter_mut().filter(|s| s.done.is_none()) {
            sample.reply = Err(format!("probe connection failed: {e}"));
        }
    }
    run
}

fn drive_probes(
    addr: SocketAddr,
    requests: &[Wire],
    due: &dyn Fn(usize) -> Instant,
    run: &mut ProbeRun,
) -> io::Result<()> {
    let first_id = requests.first().map_or(0, |w| w.id);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut poll = Poll::new()?;
    poll.register(&stream, Token(0), Interest::READABLE)?;
    let mut events = Events::with_capacity(4);
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let give_up = due(requests.len()) + PROBE_DRAIN;
    let (mut next, mut answered) = (0usize, 0usize);
    while answered < requests.len() {
        let now = Instant::now();
        while next < requests.len() && due(next) <= now {
            stream.write_all(&requests[next].line)?;
            let sent = Instant::now();
            run.samples[next].sent = sent;
            run.lag_ms.push(sent.saturating_duration_since(due(next)).as_secs_f64() * 1e3);
            next += 1;
        }
        if now >= give_up {
            return Ok(());
        }
        let wake = if next < requests.len() { due(next) } else { give_up };
        let wait_us = wake.saturating_duration_since(now).as_micros();
        poll.poll(&mut events, Some(Duration::from_millis(wait_us.div_ceil(1000) as u64)))?;
        if events.is_empty() {
            continue;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed"));
        }
        let done = Instant::now();
        decoder.push(&chunk[..n]);
        while let Some(frame) = decoder.next_frame() {
            let line = frame.map_err(|e| io::Error::other(e.to_string()))?;
            let id = protocol::best_effort_id(&line);
            let Some(sample) = id
                .checked_sub(first_id)
                .and_then(|i| run.samples.get_mut(i as usize))
                .filter(|s| s.done.is_none())
            else {
                return Err(io::Error::other(format!("reply to no pending probe: {line}")));
            };
            sample.done = Some(done);
            sample.reply = outcome(&line, id);
            answered += 1;
        }
    }
    Ok(())
}
