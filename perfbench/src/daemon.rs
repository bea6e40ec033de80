//! The processes under test: a `chain2l serve` daemon spawned as deployed,
//! a standalone shard worker reached directly, the blocking NDJSON client
//! that talks to both, and the daemon's own counters (`stats`, `health`,
//! `VmHWM`).

use chain2l_service::frame::FrameDecoder;
use chain2l_service::protocol::{self, HealthReport, Request, Response};
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long the daemon may take to bind, or to exit after `shutdown`.
const PROCESS_DEADLINE: Duration = Duration::from_secs(60);

fn other(message: String) -> io::Error {
    io::Error::other(message)
}

/// A blocking NDJSON connection.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    chunk: Vec<u8>,
}

impl Client {
    /// Connects with Nagle off and the reply timeout armed.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client { stream, decoder: FrameDecoder::new(), chunk: vec![0; 64 * 1024] })
    }

    /// Writes one frame; `line` must end with a newline.
    pub fn send(&mut self, line: &[u8]) -> io::Result<()> {
        self.stream.write_all(line)
    }

    /// Reads the next frame.
    pub fn receive(&mut self) -> io::Result<String> {
        loop {
            if let Some(frame) = self.decoder.next_frame() {
                return frame.map_err(|e| other(e.to_string()));
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
            }
            self.decoder.push(&self.chunk[..n]);
        }
    }

    /// One request, one parsed response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let mut line = protocol::encode_request(request);
        line.push('\n');
        self.send(line.as_bytes())?;
        let reply = self.receive()?;
        protocol::parse_response(&reply).map_err(|e| other(format!("{e}: {reply}")))
    }
}

/// One shard's engine counters, parsed from the daemon's `stats` text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardCounts {
    /// Cache hits.
    pub hits: u64,
    /// Misses served from retained tables with no DP work.
    pub reused: u64,
    /// Misses served by extending retained tables.
    pub extended: u64,
    /// Cold solves (pruned and exhaustive).
    pub cold: u64,
    /// Contexts retaining DP tables.
    pub contexts: u64,
    /// Boot-time snapshot load outcome.
    pub load: String,
}

impl std::fmt::Display for ShardCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} reused {} extended {} cold {} contexts {}",
            self.hits, self.reused, self.extended, self.cold, self.contexts
        )
    }
}

/// The number written right before `marker` in `text`.
fn number_before(text: &str, marker: &str) -> Option<u64> {
    let head = &text[..text.find(marker)?];
    let digits: String = head.chars().rev().take_while(char::is_ascii_digit).collect();
    digits.chars().rev().collect::<String>().parse().ok()
}

/// Parses one `shard i: …` line of the `stats` detail.
fn parse_shard_line(line: &str) -> Option<ShardCounts> {
    let (_, body) = line.split_once(": ")?;
    Some(ShardCounts {
        hits: number_before(body, " hits")?,
        reused: number_before(body, " reused")?,
        extended: number_before(body, " extended")?,
        cold: number_before(body, " cold (pruned)")? + number_before(body, " cold (exhaustive)")?,
        contexts: number_before(body, " retained")?,
        load: body.rsplit_once("load: ")?.1.to_string(),
    })
}

/// Asks for `stats` and parses every shard's counters; fails unless every
/// shard answered with its engine's statistics.
pub fn shard_counts(addr: SocketAddr, shards: usize) -> io::Result<Vec<ShardCounts>> {
    let mut client = Client::connect(addr)?;
    let detail = match client.call(&Request::Stats { id: 1 })? {
        Response::Stats { detail, .. } => detail,
        other_reply => return Err(other(format!("unexpected stats reply {other_reply:?}"))),
    };
    let counts: Vec<ShardCounts> = detail
        .lines()
        .filter(|line| line.starts_with("shard "))
        .map(|line| parse_shard_line(line).ok_or_else(|| other(format!("shard not ready: {line}"))))
        .collect::<io::Result<_>>()?;
    if counts.len() != shards {
        return Err(other(format!("expected {shards} shard(s) in stats: {detail}")));
    }
    Ok(counts)
}

/// The daemon's supervision counters.
pub fn health(addr: SocketAddr) -> io::Result<HealthReport> {
    match Client::connect(addr)?.call(&Request::Health { id: 1 })? {
        Response::Health { report, .. } => Ok(report),
        other_reply => Err(other(format!("unexpected health reply {other_reply:?}"))),
    }
}

/// Process ids whose parent is `pid`.
fn children(pid: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else { return Vec::new() };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|child| {
            let stat = fs::read_to_string(format!("/proc/{child}/stat")).unwrap_or_default();
            // `pid (comm) state ppid …`; comm may hold spaces and parentheses.
            let fields = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
            fields.split_whitespace().nth(1).and_then(|p| p.parse::<u32>().ok()) == Some(pid)
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of a process, in KiB.
fn vmhwm_kib(pid: u32) -> u64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Waits for `child` to exit, killing it at the deadline.
fn reap(child: &mut Child, deadline: Duration) -> io::Result<()> {
    let until = Instant::now() + deadline;
    while child.try_wait()?.is_none() {
        if Instant::now() >= until {
            let _ = child.kill();
            child.wait()?;
            return Err(other(format!("process {} missed its exit deadline", child.id())));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Waits until none of `pids` exists any more (they exit on their own once
/// their parent is gone).
fn await_gone(pids: &[u32]) {
    let until = Instant::now() + PROCESS_DEADLINE;
    while pids.iter().any(|pid| Path::new(&format!("/proc/{pid}")).exists()) {
        if Instant::now() >= until {
            eprintln!("perfbench: worker processes {pids:?} outlived their daemon");
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A running `chain2l serve` daemon, stopped (and its workers awaited) on
/// drop if [`Daemon::stop`] was not called.
pub struct Daemon {
    child: Option<Child>,
    /// The daemon's client address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `chain2l serve` on a free loopback port and waits until it
    /// has spawned its workers and accepts connections.
    pub fn spawn(
        bin: &Path,
        shards: usize,
        state_dir: Option<&Path>,
        log: &Path,
    ) -> io::Result<Daemon> {
        // The port is probed free here and handed to the daemon; should
        // another process take it in between, the daemon exits and the
        // spawn is retried on a fresh port.
        for _ in 0..3 {
            let addr = TcpListener::bind(("127.0.0.1", 0))?.local_addr()?;
            let mut command = Command::new(bin);
            command.args(["serve", "--addr", &addr.to_string(), "--shards", &shards.to_string()]);
            if let Some(dir) = state_dir {
                // Snapshots are written on shutdown only: a periodic snapshot
                // would contend for context locks mid-run and change routes.
                command.arg("--state-dir").arg(dir).args(["--snapshot-every", "86400"]);
            }
            command.stdin(Stdio::null()).stdout(Stdio::null()).stderr(fs::File::create(log)?);
            let mut child = command.spawn()?;
            let until = Instant::now() + PROCESS_DEADLINE;
            while child.try_wait()?.is_none() {
                if TcpStream::connect(addr).is_ok() {
                    return Ok(Daemon { child: Some(child), addr });
                }
                if Instant::now() >= until {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let text = fs::read_to_string(log).unwrap_or_default();
        Err(other(format!("daemon did not start: {text}")))
    }

    /// Summed `VmHWM` of the daemon and its workers, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let Some(child) = &self.child else { return 0.0 };
        let pid = child.id();
        let kib: u64 = std::iter::once(pid).chain(children(pid)).map(vmhwm_kib).sum();
        kib as f64 / 1024.0
    }

    /// Graceful shutdown (workers write their snapshots), then waits for
    /// the daemon and every worker to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let Some(mut child) = self.child.take() else { return Ok(()) };
        let workers = children(child.id());
        let asked =
            Client::connect(self.addr).and_then(|mut c| c.call(&Request::Shutdown { id: 1 }));
        let reaped = match asked {
            Ok(_) => reap(&mut child, PROCESS_DEADLINE),
            Err(e) => {
                let _ = child.kill();
                child.wait().map(|_| ()).and(Err(e))
            }
        };
        await_gone(&workers);
        reaped
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let workers = children(child.id());
            let _ = child.kill();
            let _ = child.wait();
            await_gone(&workers);
        }
    }
}

/// A standalone shard worker (`chain2l serve --internal-shard`), reached
/// directly instead of through the daemon; it exits when its stdin closes.
pub struct Worker {
    child: Child,
    /// The worker's address.
    pub addr: SocketAddr,
}

impl Worker {
    /// Spawns the worker and reads the port it announces.
    pub fn spawn(bin: &Path, log: &Path) -> io::Result<Worker> {
        let mut child = Command::new(bin)
            .args(["serve", "--internal-shard"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(fs::File::create(log)?)
            .spawn()?;
        let mut hello = String::new();
        if let Some(stdout) = child.stdout.take() {
            BufReader::new(stdout).read_line(&mut hello)?;
        }
        match protocol::parse_hello(hello.trim_end()) {
            Ok(port) => Ok(Worker { child, addr: SocketAddr::from(([127, 0, 0, 1], port)) }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(other(format!("worker announced no port ({e}): {hello:?}")))
            }
        }
    }

    /// Closes the worker's stdin and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        reap(&mut self.child, PROCESS_DEADLINE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_lines_parse_into_route_counts() {
        let line = "shard 1: 7 hits, 5 misses (58.3 % hit rate), 5 entries (0 evicted, ~1 KiB); \
                    routes: 1 reused, 2 extended, 1 cold (pruned), 1 cold (exhaustive); \
                    arena: 52 checkouts (17.3 % pooled), 10 returned, 0 KiB parked \
                    (cap 262144 KiB, 0 trimmed); contexts: 3 retained (0 evicted); \
                    snapshots: 0 written (last 0 B in 0 µs), load: warm";
        let counts = parse_shard_line(line).unwrap();
        assert_eq!(
            counts,
            ShardCounts {
                hits: 7,
                reused: 1,
                extended: 2,
                cold: 2,
                contexts: 3,
                load: "warm".into()
            }
        );
        assert!(parse_shard_line("shard 0: unreachable (worker failed)").is_none());
    }
}
