//! A blocking TCP client for the wire protocol — the library behind the
//! `rfsim-client` CLI, the round-trip example, and the CI smoke job.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rfsim_numerics::json::Json;

use crate::error::{Result, ServeError};
use crate::spec::{JobResult, JobSpec, Priority};
use crate::wire::Request;

/// The settled outcome of a poll.
#[derive(Debug, Clone)]
pub struct PollOutcome {
    /// `queued` / `running` / `done` / `failed`.
    pub status: String,
    /// Present when `done`.
    pub result: Option<JobResult>,
    /// Whether a `done` result was served from the solution store.
    pub memo_hit: bool,
    /// The server-computed bit digest of a `done` result.
    pub digest: Option<String>,
    /// The failure message when `failed`.
    pub error: Option<String>,
    /// The typed interruption reason (`cancelled` / `deadline_expired`)
    /// when a `failed` job was stopped by its budget rather than by a
    /// solver error.
    pub interrupt_reason: Option<String>,
    /// Mid-solve progress of a `running` job (absent until the first
    /// Newton iteration reports, and once the job settles).
    pub progress: Option<PollProgress>,
}

/// A running job's mid-solve snapshot from the wire `progress` object.
#[derive(Debug, Clone)]
pub struct PollProgress {
    /// Active recovery-ladder rung label.
    pub rung: String,
    /// Newton iterations completed inside the active rung.
    pub iteration: usize,
    /// Best residual so far (absent before any iteration completes —
    /// the wire omits non-finite values).
    pub best_residual: Option<f64>,
}

/// A connected protocol client (one request/response at a time).
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient").finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Socket connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small lines; Nagle + delayed ACK would add
        // ~40 ms per round trip otherwise.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ServeClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// I/O failures, malformed responses, or an `ok: false` reply
    /// (surfaced as [`ServeError::Protocol`] with the server's message).
    pub fn call(&mut self, request: &Request) -> Result<Json> {
        let mut line = request.dump();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Protocol("server closed the connection".into()));
        }
        let response = Json::parse(line.trim_end()).map_err(ServeError::Protocol)?;
        match response.bool_at("ok") {
            Some(true) => Ok(response),
            Some(false) => Err(ServeError::Protocol(
                response
                    .string_at("error")
                    .unwrap_or("unspecified server error")
                    .to_string(),
            )),
            None => Err(ServeError::Protocol(format!(
                "response missing 'ok': {line}"
            ))),
        }
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    ///
    /// Transport or server-side submit failures (validation,
    /// backpressure).
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64> {
        let response = self.call(&Request::Submit(spec.clone()))?;
        response
            .number_at("job_id")
            .map(|id| id as u64)
            .ok_or_else(|| ServeError::Protocol("submit response missing 'job_id'".into()))
    }

    /// Submits a `.rfn` netlist; returns the job id and the
    /// content-addressed family name the daemon keyed it against.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server's typed refusal (parse errors
    /// arrive as `netlist error: line N: ...`).
    pub fn submit_netlist(
        &mut self,
        netlist: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<(u64, String)> {
        let response = self.call(&Request::SubmitNetlist {
            netlist: netlist.to_string(),
            priority,
            deadline_ms,
        })?;
        let job_id = response
            .number_at("job_id")
            .map(|id| id as u64)
            .ok_or_else(|| {
                ServeError::Protocol("submit_netlist response missing 'job_id'".into())
            })?;
        let family = response
            .string_at("family")
            .ok_or_else(|| ServeError::Protocol("submit_netlist response missing 'family'".into()))?
            .to_string();
        Ok((job_id, family))
    }

    /// Polls a job, long-polling server-side for up to `wait_ms`.
    ///
    /// # Errors
    ///
    /// Transport failures or an unknown job id.
    pub fn poll(&mut self, job_id: u64, wait_ms: u64) -> Result<PollOutcome> {
        let response = self.call(&Request::Poll { job_id, wait_ms })?;
        let status = response
            .string_at("status")
            .ok_or_else(|| ServeError::Protocol("poll response missing 'status'".into()))?
            .to_string();
        let result = match response.path("result") {
            Some(json) => Some(JobResult::from_json(json)?),
            None => None,
        };
        let progress = response
            .string_at("progress.rung")
            .map(|rung| PollProgress {
                rung: rung.to_string(),
                iteration: response.number_at("progress.iteration").unwrap_or(0.0) as usize,
                best_residual: response.number_at("progress.best_residual"),
            });
        Ok(PollOutcome {
            status,
            result,
            memo_hit: response.bool_at("memo_hit").unwrap_or(false),
            digest: response.string_at("digest").map(str::to_string),
            error: response.string_at("error").map(str::to_string),
            interrupt_reason: response.string_at("interrupted.reason").map(str::to_string),
            progress,
        })
    }

    /// Polls until the job settles (done or failed), up to `timeout`.
    ///
    /// # Errors
    ///
    /// Transport failures, the job's failure message, or a timeout.
    pub fn wait(&mut self, job_id: u64, timeout: Duration) -> Result<PollOutcome> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ServeError::Protocol(format!(
                    "timed out waiting for job {job_id}"
                )));
            }
            let chunk = remaining.min(Duration::from_millis(500)).as_millis() as u64;
            let outcome = self.poll(job_id, chunk.max(1))?;
            match outcome.status.as_str() {
                "done" => return Ok(outcome),
                "failed" => {
                    let reason = outcome
                        .interrupt_reason
                        .as_deref()
                        .map(|r| format!(" [{r}]"))
                        .unwrap_or_default();
                    return Err(ServeError::Protocol(format!(
                        "job {job_id} failed: {}{reason}",
                        outcome.error.as_deref().unwrap_or("unknown error")
                    )));
                }
                _ => continue,
            }
        }
    }

    /// Submits and waits in one call.
    ///
    /// # Errors
    ///
    /// Any submit or wait failure.
    pub fn run(&mut self, spec: &JobSpec, timeout: Duration) -> Result<(u64, PollOutcome)> {
        let id = self.submit(spec)?;
        let outcome = self.wait(id, timeout)?;
        Ok((id, outcome))
    }

    /// Cancels a job; returns the job's status label after the cancel
    /// took effect (`failed` for a queued job completed on the spot,
    /// `running` while a mid-solve interruption propagates, or the
    /// settled label of an already-finished job — cancel is idempotent).
    ///
    /// # Errors
    ///
    /// Transport failures or an unknown job id.
    pub fn cancel(&mut self, job_id: u64) -> Result<String> {
        let response = self.call(&Request::Cancel { job_id })?;
        response
            .string_at("status")
            .map(str::to_string)
            .ok_or_else(|| ServeError::Protocol("cancel response missing 'status'".into()))
    }

    /// Fetches the server's stats object.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> Result<Json> {
        let response = self.call(&Request::Stats)?;
        response
            .path("stats")
            .cloned()
            .ok_or_else(|| ServeError::Protocol("stats response missing 'stats'".into()))
    }

    /// Fetches the Prometheus-style metrics exposition text.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics(&mut self) -> Result<String> {
        let response = self.call(&Request::Metrics { json: false })?;
        response
            .string_at("metrics")
            .map(str::to_string)
            .ok_or_else(|| ServeError::Protocol("metrics response missing 'metrics'".into()))
    }

    /// Fetches the metrics snapshot as the stats JSON object (the
    /// `metrics` verb with `format: "json"`).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics_json(&mut self) -> Result<Json> {
        let response = self.call(&Request::Metrics { json: true })?;
        response
            .path("stats")
            .cloned()
            .ok_or_else(|| ServeError::Protocol("metrics response missing 'stats'".into()))
    }

    /// Fetches a job's lifecycle timeline (the `trace` verb): settled
    /// traces come from the server's bounded retention window, running
    /// jobs yield their partial timeline.
    ///
    /// # Errors
    ///
    /// Transport failures, an unknown/aged-out job id, or a server with
    /// telemetry disabled.
    pub fn trace(&mut self, job_id: u64) -> Result<Json> {
        let response = self.call(&Request::Trace { job_id })?;
        response
            .path("trace")
            .cloned()
            .ok_or_else(|| ServeError::Protocol("trace response missing 'trace'".into()))
    }

    /// Evicts stored solutions; returns how many were dropped.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn evict(&mut self, family: Option<&str>) -> Result<usize> {
        let response = self.call(&Request::Evict {
            family: family.map(str::to_string),
        })?;
        response
            .number_at("evicted")
            .map(|n| n as usize)
            .ok_or_else(|| ServeError::Protocol("evict response missing 'evicted'".into()))
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<()> {
        self.call(&Request::Shutdown)?;
        Ok(())
    }
}
