//! The line protocol: a newline-delimited JSON command API over
//! `std::net::TcpListener`.
//!
//! One request per line, one JSON response per line:
//!
//! | command    | request                                  | response |
//! |------------|------------------------------------------|----------|
//! | `submit`   | `{"cmd":"submit","spec":{...}}`          | `{"ok":true,"job":"j-1"}` |
//! | `status`   | `{"cmd":"status","job":"j-1"}`           | `{"ok":true,"status":{...}}` |
//! | `result`   | `{"cmd":"result","job":"j-1"}`           | `{"ok":true,"result":{...}}` |
//! | `journal`  | `{"cmd":"journal","job":"j-1"}`          | `{"ok":true,"events":[...]}` |
//! | `events`   | `{"cmd":"events"}`                       | server lifecycle journal |
//! | `cancel`   | `{"cmd":"cancel","job":"j-1"}`           | `{"ok":true,"cancelled":bool}` |
//! | `metrics`  | `{"cmd":"metrics"}`                      | `{"ok":true,"metrics":{...}}` |
//! | `shutdown` | `{"cmd":"shutdown"}`                     | `{"ok":true,"draining":true}` |
//!
//! Failures answer `{"ok":false,"error":"..."}` — an admission
//! rejection is a *successful* protocol exchange carrying an error,
//! never a dropped connection. The dispatcher is transport-agnostic
//! (`handle_line` maps a request line to a response line), so tests
//! drive it without sockets and the binary's TCP accept loop stays
//! a thin wrapper.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fixref_core::JobSpec;
use fixref_obs::json::{self, escape};
use fixref_obs::{Event, Json};

use crate::server::Server;

/// Renders a `{"ok":false,...}` error response.
fn err_line(message: &str) -> String {
    format!(r#"{{"ok":false,"error":"{}"}}"#, escape(message))
}

/// Renders a `{"ok":true,"events":[...]}` journal response.
fn events_line(events: &[Event]) -> String {
    format!(r#"{{"ok":true,"events":{}}}"#, json::encode(events))
}

/// Dispatches one request line against the server, returning the
/// response line (without trailing newline). Never panics on malformed
/// input — every parse failure is an `{"ok":false}` response.
pub fn handle_line(server: &Server, line: &str) -> String {
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return err_line(&format!("malformed request: {e}")),
    };
    let Some(cmd) = v.get("cmd").and_then(Json::as_str) else {
        return err_line("missing \"cmd\"");
    };
    let job_arg = |v: &Json| -> Result<String, String> {
        v.get("job")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "missing \"job\"".to_string())
    };
    match cmd {
        "submit" => {
            let Some(spec) = v.get("spec") else {
                return err_line("missing \"spec\"");
            };
            let spec = match JobSpec::from_value(spec) {
                Ok(s) => s,
                Err(e) => return err_line(&e.to_string()),
            };
            match server.submit(spec) {
                Ok(job) => format!(r#"{{"ok":true,"job":"{}"}}"#, escape(&job)),
                Err(rejection) => err_line(&rejection.reason),
            }
        }
        "status" => match job_arg(&v) {
            Ok(job) => match server.status(&job) {
                Some(s) => format!(r#"{{"ok":true,"status":{}}}"#, s.to_json()),
                None => err_line(&format!("unknown job {job:?}")),
            },
            Err(e) => err_line(&e),
        },
        "result" => match job_arg(&v) {
            Ok(job) => match server.result(&job) {
                Some(r) => format!(r#"{{"ok":true,"result":{}}}"#, r.to_json()),
                None => err_line(&format!("no result for job {job:?}")),
            },
            Err(e) => err_line(&e),
        },
        "journal" => match job_arg(&v) {
            Ok(job) => events_line(&server.journal(&job)),
            Err(e) => err_line(&e),
        },
        "events" => events_line(&server.recorder().events()),
        "cancel" => match job_arg(&v) {
            Ok(job) => format!(r#"{{"ok":true,"cancelled":{}}}"#, server.cancel(&job)),
            Err(e) => err_line(&e),
        },
        "metrics" => format!(
            r#"{{"ok":true,"metrics":{}}}"#,
            server.metrics().render_json()
        ),
        "shutdown" => r#"{"ok":true,"draining":true}"#.to_string(),
        other => err_line(&format!("unknown command {other:?}")),
    }
}

/// Serves the line protocol on `listener` until a `shutdown` command
/// arrives (or `stop` is raised externally), then returns so the caller
/// can drain. Each connection is handled on the accept thread — the
/// protocol is request/response, and job execution happens on the
/// server's worker threads, so a slow client never blocks a job.
///
/// # Errors
///
/// I/O errors from the listener itself; per-connection errors just end
/// that connection.
pub fn serve_listener(
    server: &Server,
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                if handle_connection(server, stream, stop) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Handles one connection to completion; returns `true` when the
/// client asked for shutdown.
fn handle_connection(server: &Server, stream: TcpStream, stop: &Arc<AtomicBool>) -> bool {
    let _ = stream.set_nonblocking(false);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(server, &line);
        let is_shutdown = response == r#"{"ok":true,"draining":true}"#;
        if writer
            .write_all(format!("{response}\n").as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if is_shutdown {
            stop.store(true, Ordering::SeqCst);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use fixref_core::FlowSpec;
    use fixref_sim::{DesignSpec, ScenarioSet};

    fn test_server(name: &str) -> Server {
        let dir = std::env::temp_dir().join(format!("fixref_proto_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        Server::open(ServerConfig::new(dir)).expect("opens")
    }

    fn submit_line() -> String {
        let spec = JobSpec::new(
            "acme",
            DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
            ScenarioSet::single(7, 28.0, 120),
        )
        .with_flow(FlowSpec {
            max_simulations: Some(6),
            ..FlowSpec::default()
        });
        format!(r#"{{"cmd":"submit","spec":{}}}"#, spec.to_json())
    }

    #[test]
    fn submit_status_result_journal_round_trip() {
        let server = test_server("round_trip");
        let response = handle_line(&server, &submit_line());
        assert!(response.contains(r#""ok":true"#), "{response}");
        assert!(response.contains(r#""job":"j-1""#), "{response}");

        let status = handle_line(&server, r#"{"cmd":"status","job":"j-1"}"#);
        assert!(status.contains(r#""state":"queued""#), "{status}");

        server.run_until_idle();
        let status = handle_line(&server, r#"{"cmd":"status","job":"j-1"}"#);
        assert!(status.contains(r#""state":"finished""#), "{status}");
        let result = handle_line(&server, r#"{"cmd":"result","job":"j-1"}"#);
        assert!(result.contains(r#""status":"#), "{result}");
        let journal = handle_line(&server, r#"{"cmd":"journal","job":"j-1"}"#);
        assert!(
            journal.contains(r#""event":"iteration_started""#),
            "{journal}"
        );
        assert!(
            journal.contains(r#""event":"checkpoint_written""#),
            "{journal}"
        );
        let metrics = handle_line(&server, r#"{"cmd":"metrics"}"#);
        assert!(metrics.contains("serve"), "{metrics}");
    }

    #[test]
    fn malformed_and_unknown_requests_answer_structured_errors() {
        let server = test_server("malformed");
        for bad in [
            "not json",
            r#"{"nocmd":1}"#,
            r#"{"cmd":"explode"}"#,
            r#"{"cmd":"status"}"#,
            r#"{"cmd":"submit"}"#,
            r#"{"cmd":"submit","spec":{"tenant":"a"}}"#,
            r#"{"cmd":"status","job":"j-99"}"#,
        ] {
            let response = handle_line(&server, bad);
            assert!(response.contains(r#""ok":false"#), "{bad} -> {response}");
        }
    }

    #[test]
    fn deeply_nested_requests_are_refused_not_a_stack_overflow() {
        let server = test_server("deep");
        let response = handle_line(&server, &"[".repeat(200_000));
        assert!(response.starts_with(r#"{"ok":false,"#), "{response}");
        assert!(response.contains("nesting"), "{response}");
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        use std::io::{BufRead as _, BufReader, Write as _};
        let server = std::sync::Arc::new(test_server("tcp"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_listener(&server, &listener, &stop))
        };

        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .write_all(format!("{}\n", submit_line()).as_bytes())
            .expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains(r#""job":"j-1""#), "{line}");

        stream
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("writes");
        line.clear();
        reader.read_line(&mut line).expect("reads");
        assert!(line.contains(r#""draining":true"#), "{line}");
        acceptor.join().expect("joins").expect("listener ok");
        server.drain();
        assert_eq!(server.queue_depth(), 0);
    }
}
