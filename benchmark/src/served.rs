//! The measured loop: one load thread, one connection, closed loop.
//!
//! Every answer is checked — status, then bytes against the payload
//! that was sent — and every request is tallied per use case so the
//! client's view can be reconciled with the daemon's own counters.

use std::collections::BTreeMap;
use std::time::Instant;

use server::client::Client;
use server::protocol::{Op, Request, Response, Status};

use crate::deck::{Deck, Shape, Workload, BURST_LAPS, TENANT};
use crate::spans::Recorder;

/// What the client saw one use case do.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CaseTally {
    pub compress_calls: u64,
    pub decompress_calls: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

/// Everything sent to one daemon over its lifetime.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests due, whether or not they could be sent.
    pub attempted: u64,
    /// Requests refused, errored, answered with wrong bytes, or never
    /// sent because the compress they depend on failed.
    pub failed: u64,
    pub cases: BTreeMap<String, CaseTally>,
}

/// Timings and byte counts of one run of consecutive laps: a segment
/// of a pass, or the warm-up.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    pub wall_ns: u64,
    /// One sample per compress call; on the pipelined shape, one per
    /// burst: the burst's time divided by its requests.
    pub compress_ns: Vec<u64>,
    pub decompress_ns: Vec<u64>,
    /// Time inside compress / decompress calls.
    pub compress_time_ns: u64,
    pub decompress_time_ns: u64,
    /// Requests answered `Ok` and verified.
    pub compress_ops: u64,
    pub decompress_ops: u64,
    pub payload_bytes: u64,
    pub frame_bytes: u64,
    pub wire_bytes: u64,
    /// Longest single call or burst.
    pub call_max_ns: u64,
    /// Pipelined shape only: bursts, and those that took over 25 ms.
    pub bursts: u64,
    pub stalled_bursts: u64,
    // Filled in at the segment boundary by the caller.
    /// Daemon CPU time spent while the segment ran.
    pub cpu_ns: u64,
    /// Dictionary retrains the segment's compresses triggered (known
    /// only to the in-process `managed` rung).
    pub retrains: u64,
    /// The calibration kernel's time, on the first segment of a pass.
    pub calib_ns: u64,
}

impl Segment {
    pub fn ops(&self) -> u64 {
        self.compress_ops + self.decompress_ops
    }
}

/// The tally of `name`, created on first use; no allocation after that.
fn case_of<'a>(cases: &'a mut BTreeMap<String, CaseTally>, name: &str) -> &'a mut CaseTally {
    if !cases.contains_key(name) {
        cases.insert(name.to_string(), CaseTally::default());
    }
    cases.get_mut(name).expect("inserted above")
}

/// A burst slower than this has hit a stall, not a slow codec: the
/// slowest bursts of 64 compresses take 14 ms, and a write that waits
/// for a delayed ACK takes 40 ms more.
const STALL_NS: u64 = 25_000_000;

/// Bytes of one encoded request: length prefix, fixed header, names,
/// payload.
fn request_bytes(use_case: &str, payload: usize) -> usize {
    4 + 7 + TENANT.len() + use_case.len() + payload
}

/// Bytes on the wire for one request and its response.
fn wire_bytes(use_case: &str, sent: usize, received: usize) -> u64 {
    (request_bytes(use_case, sent) + 4 + 5 + received) as u64
}

/// One connection to one daemon: what is sent, what must come back,
/// and the running tally of both.
pub struct Session<'a> {
    pub client: Client,
    pub workload: &'a Workload,
    pub deck: &'a Deck,
    /// What every read is compared with: the deck itself, except in the
    /// self-test that proves the check bites.
    pub expect: &'a Deck,
    pub rec: &'a mut Recorder,
    pub tally: Tally,
}

impl Session<'_> {
    /// Replays laps `first_lap .. first_lap + laps` and verifies every
    /// answer. A request the daemon answers badly is a failed op and
    /// the run goes on; a transport failure ends the run.
    pub fn run_laps(&mut self, first_lap: usize, laps: usize) -> Result<Segment, String> {
        let mut pass = Segment::default();
        let start = Instant::now();
        match self.workload.shape {
            Shape::RoundTrip => {
                for lap in first_lap..first_lap + laps {
                    self.round_trip_lap(lap, &mut pass)?;
                }
            }
            Shape::Pipeline { window } => {
                let end = first_lap + laps;
                let mut burst = first_lap;
                while burst < end {
                    let next = self.burst_end(burst, end, window);
                    self.pipelined_burst(burst..next, &mut pass)?;
                    burst = next;
                }
            }
        }
        pass.wall_ns = start.elapsed().as_nanos() as u64;
        Ok(pass)
    }

    fn round_trip_lap(&mut self, lap: usize, pass: &mut Segment) -> Result<(), String> {
        let ops_per_lap = self.workload.ops_per_lap() as u64;
        let card = self.deck.card(lap);
        let want = &self.expect.card(lap).payload;
        let case = case_of(&mut self.tally.cases, &card.use_case);
        self.tally.attempted += ops_per_lap;
        self.rec.open("bench.lap", lap as u64);

        let t0 = Instant::now();
        let resp = self
            .client
            .compress(TENANT, &card.use_case, &card.payload)
            .map_err(|e| format!("compress transport on lap {lap}: {e}"))?;
        let t1 = Instant::now();
        self.rec.leaf("server.call.compress", lap as u64, t0, t1);
        let ns = (t1 - t0).as_nanos() as u64;
        pass.compress_ns.push(ns);
        pass.compress_time_ns += ns;
        pass.call_max_ns = pass.call_max_ns.max(ns);
        if resp.status != Status::Ok {
            // The reads of a frame that was never made are due and lost.
            self.tally.failed += ops_per_lap;
            self.rec.close();
            return Ok(());
        }
        let frame = resp.payload;
        case.compress_calls += 1;
        case.bytes_in += card.payload.len() as u64;
        case.bytes_out += frame.len() as u64;
        pass.compress_ops += 1;
        pass.payload_bytes += card.payload.len() as u64;
        pass.frame_bytes += frame.len() as u64;
        pass.wire_bytes += wire_bytes(&card.use_case, card.payload.len(), frame.len());

        for _ in 0..self.workload.reads {
            let t0 = Instant::now();
            let back = self
                .client
                .decompress(TENANT, &card.use_case, &frame)
                .map_err(|e| format!("decompress transport on lap {lap}: {e}"))?;
            let t1 = Instant::now();
            self.rec.leaf("server.call.decompress", lap as u64, t0, t1);
            let ns = (t1 - t0).as_nanos() as u64;
            pass.decompress_ns.push(ns);
            pass.decompress_time_ns += ns;
            pass.call_max_ns = pass.call_max_ns.max(ns);
            if back.status == Status::Ok {
                case.decompress_calls += 1;
            }
            if back.status == Status::Ok && back.payload == *want {
                pass.decompress_ops += 1;
                pass.wire_bytes += wire_bytes(&card.use_case, frame.len(), back.payload.len());
            } else {
                self.tally.failed += 1;
            }
        }
        self.rec.close();
        Ok(())
    }

    /// Where the burst starting at lap `first` ends: as many laps, up
    /// to `BURST_LAPS`, as have their compress requests fit the send
    /// `window` — and at least one.
    fn burst_end(&self, first: usize, end: usize, window: usize) -> usize {
        let mut bytes = 0;
        let mut lap = first;
        while lap < end && lap - first < BURST_LAPS {
            let card = self.deck.card(lap);
            bytes += request_bytes(&card.use_case, card.payload.len());
            if bytes > window && lap > first {
                break;
            }
            lap += 1;
        }
        lap
    }

    /// One pipelined write and the reading of its answers, timed.
    fn burst_call(
        &mut self,
        name: &'static str,
        first: u64,
        reqs: &[Request],
        pass: &mut Segment,
    ) -> Result<(Vec<Response>, u64), String> {
        let t0 = Instant::now();
        let resps = self
            .client
            .pipeline(reqs)
            .map_err(|e| format!("pipeline transport at lap {first}: {e}"))?;
        let t1 = Instant::now();
        self.rec.leaf(name, first, t0, t1);
        let ns = (t1 - t0).as_nanos() as u64;
        pass.call_max_ns = pass.call_max_ns.max(ns);
        pass.bursts += 1;
        pass.stalled_bursts += u64::from(ns > STALL_NS);
        Ok((resps, ns))
    }

    fn pipelined_burst(
        &mut self,
        laps: std::ops::Range<usize>,
        pass: &mut Segment,
    ) -> Result<(), String> {
        let ops_per_lap = self.workload.ops_per_lap() as u64;
        let first = laps.start as u64;
        self.tally.attempted += laps.len() as u64 * ops_per_lap;
        self.rec.open("bench.burst", first);

        let reqs: Vec<Request> = laps
            .clone()
            .map(|lap| Request {
                op: Op::Compress,
                tenant: TENANT.into(),
                use_case: self.deck.card(lap).use_case.clone(),
                payload: self.deck.card(lap).payload.clone(),
            })
            .collect();
        let (resps, ns) = self.burst_call("server.call.compress", first, &reqs, pass)?;
        pass.compress_ns.push(ns / reqs.len() as u64);
        pass.compress_time_ns += ns;

        // The laps whose compress succeeded, and the read of each frame.
        let mut read_laps = Vec::with_capacity(reqs.len());
        let mut reads = Vec::with_capacity(reqs.len());
        for ((lap, req), resp) in laps.zip(reqs).zip(resps) {
            if resp.status != Status::Ok {
                self.tally.failed += ops_per_lap;
                continue;
            }
            let case = case_of(&mut self.tally.cases, &req.use_case);
            case.compress_calls += 1;
            case.bytes_in += req.payload.len() as u64;
            case.bytes_out += resp.payload.len() as u64;
            pass.compress_ops += 1;
            pass.payload_bytes += req.payload.len() as u64;
            pass.frame_bytes += resp.payload.len() as u64;
            pass.wire_bytes += wire_bytes(&req.use_case, req.payload.len(), resp.payload.len());
            read_laps.push(lap);
            reads.push(Request {
                op: Op::Decompress,
                payload: resp.payload,
                ..req
            });
        }
        if reads.is_empty() {
            self.rec.close();
            return Ok(());
        }

        for _ in 0..self.workload.reads {
            let (backs, ns) = self.burst_call("server.call.decompress", first, &reads, pass)?;
            pass.decompress_ns.push(ns / reads.len() as u64);
            pass.decompress_time_ns += ns;
            for ((lap, req), back) in read_laps.iter().zip(&reads).zip(backs) {
                if back.status == Status::Ok {
                    case_of(&mut self.tally.cases, &req.use_case).decompress_calls += 1;
                }
                if back.status == Status::Ok && back.payload == self.expect.card(*lap).payload {
                    pass.decompress_ops += 1;
                    pass.wire_bytes +=
                        wire_bytes(&req.use_case, req.payload.len(), back.payload.len());
                } else {
                    self.tally.failed += 1;
                }
            }
        }
        self.rec.close();
        Ok(())
    }

    /// The daemon's per-use-case counters and the total of
    /// `versions_trained`, from its `Stats` answer.
    pub fn fetch_stats(&mut self) -> Result<(BTreeMap<String, CaseTally>, u64), String> {
        let resp = self
            .client
            .stats(TENANT)
            .map_err(|e| format!("stats transport: {e}"))?;
        if resp.status != Status::Ok {
            return Err(format!("stats answered {}", resp.status.as_str()));
        }
        parse_stats(&String::from_utf8_lossy(&resp.payload))
    }

    /// Counters on which this session's tallies and the daemon's
    /// disagree.
    pub fn count_mismatches(&mut self) -> Result<u64, String> {
        let (daemon, _) = self.fetch_stats()?;
        Ok(count_mismatches(&self.tally, &daemon))
    }
}

/// Parses the daemon's stats JSON into per-use-case counters and the
/// total of `versions_trained`.
fn parse_stats(body: &str) -> Result<(BTreeMap<String, CaseTally>, u64), String> {
    let doc: serde_json::Value =
        serde_json::from_str(body).map_err(|e| format!("stats JSON: {e}"))?;
    let cases = doc
        .get("use_cases")
        .and_then(|v| v.as_array())
        .ok_or("stats JSON has no use_cases array")?;
    let mut out = BTreeMap::new();
    let mut trained = 0u64;
    for case in cases {
        let field = |name: &str| {
            case.get(name)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("stats JSON: use case without {name}"))
        };
        let name = case
            .get("use_case")
            .and_then(|v| v.as_str())
            .ok_or("stats JSON: use case without a name")?;
        trained += field("versions_trained")?;
        out.insert(
            name.to_string(),
            CaseTally {
                compress_calls: field("compress_calls")?,
                decompress_calls: field("decompress_calls")?,
                bytes_in: field("bytes_in")?,
                bytes_out: field("bytes_out")?,
            },
        );
    }
    Ok((out, trained))
}

/// Counters on which the client's tallies and the daemon's disagree.
fn count_mismatches(client: &Tally, daemon: &BTreeMap<String, CaseTally>) -> u64 {
    let empty = CaseTally::default();
    let names: std::collections::BTreeSet<&String> =
        client.cases.keys().chain(daemon.keys()).collect();
    names
        .into_iter()
        .map(|name| {
            let c = client.cases.get(name).unwrap_or(&empty);
            let d = daemon.get(name).unwrap_or(&empty);
            u64::from(c.compress_calls != d.compress_calls)
                + u64::from(c.decompress_calls != d.decompress_calls)
                + u64::from(c.bytes_in != d.bytes_in)
                + u64::from(c.bytes_out != d.bytes_out)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use server::{CompressionServer, ServerConfig};

    /// Round trips, windowed bursts, and whole 64-lap bursts.
    const SHAPES: [Shape; 3] = [
        Shape::RoundTrip,
        Shape::Pipeline {
            window: crate::deck::PIPELINE_WINDOW,
        },
        Shape::Pipeline { window: usize::MAX },
    ];

    fn tiny_workload(shape: Shape) -> Workload {
        Workload {
            shape,
            ..*Workload::by_name("cache_rr").unwrap()
        }
    }

    fn serve_one_pass(shape: Shape, corrupt: bool) -> (Tally, Segment, u64) {
        let server = CompressionServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let workload = tiny_workload(shape);
        let deck = Deck::build(&workload, 7);
        let mut expect = deck.clone();
        if corrupt {
            expect.cards[5].payload[0] ^= 0x01;
        }
        let mut rec = Recorder::new(false);
        let mut session = Session {
            client: Client::connect(server.local_addr()).expect("connect"),
            workload: &workload,
            deck: &deck,
            expect: &expect,
            rec: &mut rec,
            tally: Tally::default(),
        };
        let pass = session.run_laps(0, 128).expect("no transport failure");
        let mismatches = session.count_mismatches().expect("stats");
        let tally = session.tally;
        server.shutdown();
        (tally, pass, mismatches)
    }

    #[test]
    fn clean_pass_verifies_and_reconciles_on_every_shape() {
        for shape in SHAPES {
            let (tally, pass, mismatches) = serve_one_pass(shape, false);
            assert_eq!(tally.attempted, 128 * 5);
            assert_eq!(tally.failed, 0, "{shape:?}");
            assert_eq!(pass.ops(), 128 * 5);
            assert_eq!(mismatches, 0, "{shape:?}: client tallies = daemon counters");
            assert!(pass.frame_bytes > 0 && pass.frame_bytes < pass.payload_bytes);
        }
    }

    /// The check has to bite: one wrong expected byte fails exactly the
    /// reads of that lap, which makes `failed_share` positive and the
    /// exit code non-zero.
    #[test]
    fn a_corrupted_expected_payload_fails_its_reads() {
        for shape in SHAPES {
            let (tally, pass, _) = serve_one_pass(shape, true);
            assert_eq!(tally.failed, 4, "{shape:?}");
            assert_eq!(pass.ops(), 128 * 5 - 4);
            let outcome = crate::report::Outcome {
                attempted: tally.attempted,
                failed: tally.failed,
                count_mismatch: 0,
            };
            assert!(outcome.failed_share() > 0.0);
            assert!(!outcome.correct());
        }
    }

    #[test]
    fn disagreeing_counters_are_counted_per_field() {
        let mut client = Tally::default();
        client.cases.insert(
            "a".into(),
            CaseTally {
                compress_calls: 2,
                decompress_calls: 8,
                bytes_in: 100,
                bytes_out: 40,
            },
        );
        let mut daemon = client.cases.clone();
        assert_eq!(count_mismatches(&client, &daemon), 0);
        daemon.get_mut("a").unwrap().bytes_out = 41;
        daemon.insert("only-daemon".into(), CaseTally::default());
        assert_eq!(count_mismatches(&client, &daemon), 1);
        daemon.get_mut("only-daemon").unwrap().compress_calls = 1;
        assert_eq!(count_mismatches(&client, &daemon), 2);
    }

    #[test]
    fn stats_json_is_parsed_per_use_case() {
        let body = r#"{"tenant":"bench","use_cases":[{"use_case":"a","compress_calls":3,"decompress_calls":12,"bytes_in":900,"bytes_out":300,"ratio":3.0000,"passthrough":0,"shed":0,"deadline_exceeded":0,"quarantined":0,"versions_trained":2},{"use_case":"b","compress_calls":1,"decompress_calls":4,"bytes_in":10,"bytes_out":9,"ratio":1.1111,"passthrough":0,"shed":0,"deadline_exceeded":0,"quarantined":0,"versions_trained":1}]}"#;
        let (cases, trained) = parse_stats(body).unwrap();
        assert_eq!(trained, 3);
        assert_eq!(cases["a"].decompress_calls, 12);
        assert_eq!(cases["b"].bytes_out, 9);
        assert!(parse_stats("{}").is_err());
        assert!(parse_stats("not json").is_err());
    }
}
