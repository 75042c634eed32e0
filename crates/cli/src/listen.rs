//! `shapdb serve --listen <addr>` — the JSONL protocol over real sockets.
//!
//! Same wire protocol as `--jsonl` (see [`crate::serve`]), served over a
//! TCP or Unix-domain socket instead of stdin/stdout: `--listen host:port`
//! binds TCP, `--listen unix:/path` (or any address containing `/`) binds
//! a Unix socket. Every accepted connection is an independent session —
//! its own parse state, its own response ordering, its own final
//! `{"stats":{...}}` line at client EOF — but all connections share ONE
//! resident [`ShapleyService`]: one worker pool, one result cache (disk
//! backed under `--persist`), so a lineage any client solved is a cache
//! hit for every later client, across connections *and* restarts.
//!
//! Concurrency model — std threads only, no async runtime:
//!
//! * an **accept thread** loops on the listener and spawns per-connection
//!   threads;
//! * each connection runs the one JSONL session of [`crate::serve`] —
//!   the same one `--jsonl` runs over stdin/stdout: a **reader** (parse →
//!   validate → submit on the connection's own fair-queue lane) and a
//!   **writer** thread that writes and flushes each response as soon as
//!   it and every earlier one are done;
//! * reader and writer meet at a bounded slot queue: a client that floods
//!   requests without reading responses stalls its own reader (classic
//!   pipe discipline), never the service or other connections.
//!
//! Failure containment: a client that disconnects mid-request only kills
//! its own connection threads — submitted work completes into the shared
//! cache, the writer's failed write marks the session dead, the reader
//! unblocks, and the service keeps serving everyone else. Teardown
//! ([`SocketServer::shutdown`]) closes the listener via a self-connect
//! wake-up, shuts both halves of every live connection, joins every
//! thread, and drains the service.

use crate::serve::{
    build_service, lock_recover, render_stats, run_session, ServeOptions, ServeSummary,
};
use crate::{err, CliError};
use shapdb_core::engine::{ServiceStats, ShapleyService};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// `unix:/path` (explicit) or anything containing a `/` names a Unix
/// socket; everything else is a TCP `host:port`.
fn unix_path(spec: &str) -> Option<&str> {
    if let Some(path) = spec.strip_prefix("unix:") {
        return Some(path);
    }
    spec.contains('/').then_some(spec)
}

/// One bound listening socket.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One accepted connection; cloneable into independent read/write handles
/// over the same underlying socket.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Shuts both directions down: a blocked reader sees EOF, a blocked
    /// writer sees an error. Used for forced teardown, so errors (the peer
    /// already gone) are ignored.
    fn shutdown_both(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Live-connection registry: a teardown handle per connection still
/// running, plus every thread ever spawned (finished threads join
/// instantly at shutdown).
#[derive(Default)]
struct ConnTable {
    next_id: u64,
    live: HashMap<u64, Conn>,
    threads: Vec<JoinHandle<()>>,
}

/// State shared by the accept thread, the connection threads, and the
/// shutdown path.
struct ServerShared {
    service: ShapleyService,
    opts: ServeOptions,
    closing: AtomicBool,
    conns: Mutex<ConnTable>,
}

/// Runs one accepted connection to completion (thread body): the JSONL
/// session of [`crate::serve`], then the session stats line unless the
/// client has already gone.
fn run_connection(conn: Conn, shared: &ServerShared, id: u64) {
    // Reader and writer need independent handles on the same socket; if
    // the clone fails (fd exhaustion) the connection is simply dropped.
    if let Ok(mut output) = conn.try_clone() {
        let session = run_session(
            BufReader::new(conn),
            &mut output,
            &shared.service,
            &shared.opts,
        );
        if let Ok(tally) = session {
            let summary = ServeSummary {
                responses: tally.responses,
                errors: tally.errors,
                stats: shared.service.stats(),
            };
            let mut line = render_stats(&summary);
            line.push('\n');
            let _ = output.write_all(line.as_bytes());
        }
    }
    lock_recover(&shared.conns).live.remove(&id);
}

/// A resident JSONL server bound to a socket. Construct with
/// [`SocketServer::bind`]; it serves until [`SocketServer::shutdown`] (or
/// [`SocketServer::serve_forever`] for the CLI path).
pub struct SocketServer {
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    /// The resolved address: the actual port for TCP (so `:0` works), the
    /// path for Unix.
    addr: String,
    /// Socket file to unlink at shutdown (Unix only).
    cleanup: Option<PathBuf>,
}

/// Binds a Unix socket, reclaiming a **stale** socket file: a server
/// killed without graceful shutdown leaves its file behind, and a naive
/// rebind fails with `AddrInUse` — breaking exactly the crash-restart
/// path `--persist` exists for. On `AddrInUse`, probe the path with a
/// connect: if something answers, a live server really owns it (error
/// out); if the connection is refused, the file is a corpse — unlink it
/// and bind again.
#[cfg(unix)]
fn bind_unix(path: &str) -> Result<UnixListener, CliError> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(err(format!(
                    "bind unix socket `{path}`: a server is already listening there"
                )));
            }
            std::fs::remove_file(path)
                .map_err(|e| err(format!("reclaim stale socket `{path}`: {e}")))?;
            UnixListener::bind(path).map_err(|e| err(format!("bind unix socket `{path}`: {e}")))
        }
        Err(e) => Err(err(format!("bind unix socket `{path}`: {e}"))),
    }
}

impl SocketServer {
    /// Binds `opts.listen`, builds the shared service (replaying the
    /// persistent cache when `--persist` is set), and starts accepting.
    pub fn bind(opts: &ServeOptions) -> Result<SocketServer, CliError> {
        let spec = opts
            .listen
            .as_deref()
            .ok_or_else(|| err("--listen address required for socket mode"))?;
        let (listener, addr, cleanup) = match unix_path(spec) {
            #[cfg(unix)]
            Some(path) => {
                let l = bind_unix(path)?;
                (
                    Listener::Unix(l),
                    path.to_string(),
                    Some(PathBuf::from(path)),
                )
            }
            #[cfg(not(unix))]
            Some(path) => {
                return Err(err(format!(
                    "unix socket `{path}` unsupported on this platform"
                )))
            }
            None => {
                let l = TcpListener::bind(spec).map_err(|e| err(format!("bind `{spec}`: {e}")))?;
                let addr = l
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| spec.to_string());
                (Listener::Tcp(l), addr, None)
            }
        };
        let shared = Arc::new(ServerShared {
            service: build_service(opts)?,
            opts: opts.clone(),
            closing: AtomicBool::new(false),
            conns: Mutex::new(ConnTable::default()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));
        Ok(SocketServer {
            shared,
            accept: Some(accept),
            addr,
            cleanup,
        })
    }

    /// The bound address: `ip:port` for TCP (the real port, so binding
    /// `:0` is discoverable), the path for Unix sockets.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Point-in-time stats of the shared service (see
    /// [`ShapleyService::stats`]) — the live-server observability hook the
    /// net bench uses to pin "warm replays ran zero engines".
    pub fn stats(&self) -> ServiceStats {
        self.shared.service.stats()
    }

    /// Blocks on the accept loop — the CLI path, which serves until the
    /// process dies. (Tests use [`SocketServer::shutdown`] instead.)
    pub fn serve_forever(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Graceful teardown: stop accepting, close both halves of every live
    /// connection (blocked readers see EOF), join every thread, drain the
    /// service. Returns the service's final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shared.closing.store(true, Ordering::SeqCst);
        // The accept thread is parked in accept(); a throwaway self-connect
        // wakes it to observe `closing`.
        match unix_path(&self.addr) {
            #[cfg(unix)]
            Some(path) => {
                let _ = UnixStream::connect(path);
            }
            #[cfg(not(unix))]
            Some(_) => {}
            None => {
                let _ = TcpStream::connect(&self.addr);
            }
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let threads = {
            let mut table = lock_recover(&self.shared.conns);
            for conn in table.live.values() {
                conn.shutdown_both();
            }
            std::mem::take(&mut table.threads)
        };
        for h in threads {
            let _ = h.join();
        }
        if let Some(path) = &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
        // Close BEFORE reading stats: close joins the workers, so every
        // completed-counter increment lands in the returned snapshot.
        self.shared.service.close();
        self.shared.service.stats()
    }
}

fn accept_loop(listener: Listener, shared: &Arc<ServerShared>) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if shared.closing.load(Ordering::SeqCst) {
                    return;
                }
                continue; // transient accept failure (EMFILE, ECONNABORTED)
            }
        };
        if shared.closing.load(Ordering::SeqCst) {
            return; // the shutdown self-connect (or a late client)
        }
        let id = {
            let mut table = lock_recover(&shared.conns);
            let id = table.next_id;
            table.next_id += 1;
            // A teardown handle so shutdown can unblock this connection's
            // reader; if the clone fails the connection still runs, it is
            // just not force-closable.
            if let Ok(handle) = conn.try_clone() {
                table.live.insert(id, handle);
            }
            id
        };
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || run_connection(conn, &conn_shared, id));
        lock_recover(&shared.conns).threads.push(handle);
    }
}

/// CLI entry for `shapdb serve --listen <addr>`: binds, announces the
/// resolved address on stderr (stdout stays protocol-clean), and serves
/// until the process is killed.
pub fn run_listen(opts: &ServeOptions) -> Result<(), CliError> {
    let server = SocketServer::bind(opts)?;
    eprintln!("shapdb serve: listening on {}", server.local_addr());
    server.serve_forever();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use shapdb_metrics::counters::{CacheRunStats, SERVICE_COMPLETED};
    use std::io::BufRead;

    fn request(id: u64, lineage: &str, n_endo: usize) -> String {
        format!("{{\"id\": {id}, \"lineage\": {lineage}, \"n_endo\": {n_endo}}}\n")
    }

    /// Connects a TCP client to the server.
    fn connect(server: &SocketServer) -> TcpStream {
        TcpStream::connect(server.local_addr()).unwrap()
    }

    fn read_json_line(reader: &mut impl BufRead) -> Json {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"))
    }

    #[test]
    fn tcp_session_answers_interactively_then_stats_on_eof() {
        let server = SocketServer::bind(&ServeOptions {
            listen: Some("127.0.0.1:0".to_string()),
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let mut client = connect(&server);
        let mut reader = std::io::BufReader::new(client.try_clone().unwrap());

        // Interactive: a response must arrive while the connection is
        // still open for writing (per-response flush, no EOF needed).
        client
            .write_all(request(1, "[[0],[1,3],[1,4],[2,3],[2,4],[5,6]]", 8).as_bytes())
            .unwrap();
        let first = read_json_line(&mut reader);
        assert_eq!(first.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        let top = first.get("values").and_then(Json::as_arr).unwrap()[0]
            .as_arr()
            .unwrap();
        assert_eq!(top[1].as_str(), Some("43/105"));

        // Second round-trip on the same connection, then EOF → stats.
        client.write_all(request(2, "[[9]]", 8).as_bytes()).unwrap();
        let second = read_json_line(&mut reader);
        assert_eq!(second.get("id").and_then(Json::as_u64), Some(2));
        client.shutdown(Shutdown::Write).unwrap();
        let stats = read_json_line(&mut reader);
        let s = stats.get("stats").unwrap();
        assert_eq!(s.get("responses").and_then(Json::as_u64), Some(2));
        assert_eq!(s.get("errors").and_then(Json::as_u64), Some(0));

        let final_stats = server.shutdown();
        assert_eq!(final_stats.profile.get(&SERVICE_COMPLETED), 2);
    }

    #[test]
    fn session_stats_count_every_answered_request_as_completed() {
        // One request per session on a quiescent server: once its
        // response is read, the session's stats line must count it as
        // completed, every time.
        let server = SocketServer::bind(&ServeOptions {
            listen: Some("127.0.0.1:0".to_string()),
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        for session in 1..=100u64 {
            let mut client = connect(&server);
            let mut reader = std::io::BufReader::new(client.try_clone().unwrap());
            let lineage = format!("[[0,{}]]", session % 7 + 1);
            client
                .write_all(request(session, &lineage, 8).as_bytes())
                .unwrap();
            let v = read_json_line(&mut reader);
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "session {session}");
            client.shutdown(Shutdown::Write).unwrap();
            let stats = read_json_line(&mut reader);
            let s = stats.get("stats").unwrap();
            assert_eq!(s.get("submitted").and_then(Json::as_u64), Some(session));
            assert_eq!(
                s.get("completed").and_then(Json::as_u64),
                Some(session),
                "session {session} read its response before its completion was counted"
            );
        }
        server.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn stale_unix_socket_file_is_reclaimed_but_a_live_server_is_not() {
        let path = std::env::temp_dir().join(format!("shapdb-stale-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = ServeOptions {
            listen: Some(format!("unix:{}", path.display())),
            workers: 1,
            ..Default::default()
        };
        // A killed server leaves its socket file behind: simulate by
        // binding and leaking the listener's file.
        UnixListener::bind(&path).unwrap();
        // (the listener is dropped here, but the file stays)
        assert!(path.exists(), "stale socket file present");
        let server = SocketServer::bind(&opts).expect("rebind over a stale socket file");
        // While it is LIVE, a second bind must refuse, not steal the path.
        let conflict = match SocketServer::bind(&opts) {
            Err(e) => e,
            Ok(_) => panic!("stole a live server's socket"),
        };
        assert!(conflict.0.contains("already listening"));
        // The live server still works after the refused bind.
        let mut client = UnixStream::connect(&path).unwrap();
        let mut reader = std::io::BufReader::new(client.try_clone().unwrap());
        client.write_all(request(1, "[[0]]", 4).as_bytes()).unwrap();
        let v = read_json_line(&mut reader);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        server.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let path = std::env::temp_dir().join(format!("shapdb-listen-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server = SocketServer::bind(&ServeOptions {
            listen: Some(format!("unix:{}", path.display())),
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let mut client = UnixStream::connect(&path).unwrap();
        let mut reader = std::io::BufReader::new(client.try_clone().unwrap());
        client
            .write_all(request(7, "[[0,1],[2,3]]", 8).as_bytes())
            .unwrap();
        let v = read_json_line(&mut reader);
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        server.shutdown();
        assert!(!path.exists(), "socket file removed at shutdown");
    }

    #[test]
    fn disconnecting_client_leaves_the_service_serving() {
        let server = SocketServer::bind(&ServeOptions {
            listen: Some("127.0.0.1:0".to_string()),
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        // A rude client: submits work (one valid request, one torn half
        // request with no newline) and vanishes without reading a byte.
        {
            let mut rude = connect(&server);
            rude.write_all(request(1, "[[0,1]]", 4).as_bytes()).unwrap();
            rude.write_all(b"{\"id\": 2, \"lineage\": [[0").unwrap();
        } // dropped here — mid-request disconnect

        // A polite client on a fresh connection still gets served.
        let mut polite = connect(&server);
        let mut reader = std::io::BufReader::new(polite.try_clone().unwrap());
        polite
            .write_all(request(3, "[[4],[5]]", 8).as_bytes())
            .unwrap();
        let v = read_json_line(&mut reader);
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        drop(polite);
        drop(reader);

        let stats = server.shutdown();
        // Both valid submissions (the rude client's and the polite one's)
        // completed; the torn trailing request never parsed.
        assert_eq!(stats.profile.get(&SERVICE_COMPLETED), 2);
    }

    #[test]
    fn restarted_server_answers_warm_from_the_persistent_cache() {
        let dir = std::env::temp_dir().join(format!("shapdb-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ServeOptions {
            listen: Some("127.0.0.1:0".to_string()),
            persist: Some(dir.join("results.shapdbc")),
            workers: 1,
            ..Default::default()
        };
        let drive = |server: &SocketServer| {
            let mut client = connect(server);
            let mut reader = std::io::BufReader::new(client.try_clone().unwrap());
            for (id, lineage) in [(1, "[[0],[1,2]]"), (2, "[[0,1],[2,3],[4,5]]")] {
                client
                    .write_all(request(id, lineage, 8).as_bytes())
                    .unwrap();
                let v = read_json_line(&mut reader);
                assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "request {id}");
                assert_eq!(v.get("exact"), Some(&Json::Bool(true)));
            }
        };

        // Cold server: two engine runs, written through to disk.
        let cold = SocketServer::bind(&opts).unwrap();
        drive(&cold);
        let cold_stats = cold.shutdown();
        assert_eq!(cold_stats.profile.engine_runs(), 2);
        assert_eq!(CacheRunStats::of(&cold_stats.profile).misses, 2);

        // Restarted server, same log: every answer comes from the
        // replayed cache — zero engine runs.
        let warm = SocketServer::bind(&opts).unwrap();
        drive(&warm);
        let warm_stats = warm.shutdown();
        assert_eq!(
            warm_stats.profile.engine_runs(),
            0,
            "warm replay recomputed"
        );
        assert_eq!(CacheRunStats::of(&warm_stats.profile).hits, 2);
        assert_eq!(CacheRunStats::of(&warm_stats.profile).misses, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adversarial_lines_over_the_socket_answer_errors_and_keep_serving() {
        let server = SocketServer::bind(&ServeOptions {
            listen: Some("127.0.0.1:0".to_string()),
            max_line_bytes: 4096,
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let mut client = connect(&server);
        let mut reader = std::io::BufReader::new(client.try_clone().unwrap());

        // An over-long line, a worker-panicking shape, then a valid one.
        let mut huge = String::from("{\"id\": 1, \"lineage\": [[0");
        while huge.len() < 64 << 10 {
            huge.push_str(",0");
        }
        huge.push_str("]], \"n_endo\": 4}\n");
        client.write_all(huge.as_bytes()).unwrap();
        client
            .write_all(request(2, "[[0],[1],[2]]", 2).as_bytes())
            .unwrap();
        client
            .write_all(request(3, "[[0,1]]", 4).as_bytes())
            .unwrap();

        let too_long = read_json_line(&mut reader);
        assert_eq!(too_long.get("ok"), Some(&Json::Bool(false)));
        assert!(too_long
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("4096 bytes"));
        let unsat = read_json_line(&mut reader);
        assert_eq!(unsat.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(unsat.get("ok"), Some(&Json::Bool(false)));
        let ok = read_json_line(&mut reader);
        assert_eq!(ok.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));

        drop(client);
        drop(reader);
        let stats = server.shutdown();
        assert_eq!(
            stats.profile.get(&SERVICE_COMPLETED),
            1,
            "only the valid request ran"
        );
    }
}
