//! Chrome trace-event JSON for tail-sampled requests.
//!
//! [`to_chrome_json`] renders the request plane's sampled span trees in
//! the Chrome trace-event "JSON object format": `{"traceEvents":[...]}`
//! with one object per event. The output loads directly in Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`.
//!
//! Mapping:
//!
//! * every sampled request becomes a named thread (`thread_name`
//!   metadata `req:<id> <service>/<op> <outcome> [<reason>]`, `tid` =
//!   request id) inside one `datacomp` process (`pid` 1);
//! * every span node → a `ph:"X"` complete event whose `args` carry the
//!   request, span and parent ids and the self-time; the root adds the
//!   keep reason, outcome and error label;
//! * every zero-length node (a [`mark`](crate::request::mark)) → a
//!   `ph:"i"` thread-scoped instant with the same ids.
//!
//! Timestamps (`ts`) are microseconds with nanosecond fraction from the
//! process epoch, per the format's convention. Every event — metadata
//! included — carries `ph`, `ts`, `pid`, and `tid` so downstream
//! tooling can rely on a uniform shape.

use crate::export::json_string;
use crate::request::SampledRequest;

/// The single process id the exporter attributes all requests to.
pub const TRACE_PID: u64 = 1;

/// Serializes sampled requests as Chrome trace-event JSON.
pub fn to_chrome_json(requests: &[SampledRequest]) -> String {
    let spans: usize = requests.iter().map(|r| r.spans.len() + 1).sum();
    let mut out = String::with_capacity(spans * 160 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    meta_event(&mut out, &mut first, 0, "process_name", "datacomp");
    for r in requests {
        request_events(&mut out, &mut first, r);
    }
    out.push_str("]}");
    out
}

/// Emits one sampled request: thread-name metadata, then a complete
/// event per span node and an instant per mark.
fn request_events(out: &mut String, first: &mut bool, r: &SampledRequest) {
    let tid = r.id;
    let outcome = if r.error.is_some() { "error" } else { "ok" };
    meta_event(
        out,
        first,
        tid,
        "thread_name",
        &format!(
            "req:{} {}/{} {} [{}]",
            r.id,
            r.service,
            r.op.as_str(),
            outcome,
            r.reason.as_str()
        ),
    );
    for s in &r.spans {
        event_open(out, first);
        field_str(out, "name", s.name);
        if s.is_mark() {
            out.push_str(",\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\"");
        } else {
            out.push_str(&format!(
                ",\"cat\":\"request\",\"ph\":\"X\",\"dur\":{}.{:03}",
                s.total_nanos / 1000,
                s.total_nanos % 1000,
            ));
        }
        out.push_str(&format!(
            ",\"args\":{{\"request\":{},\"span\":{},\"parent\":{},\"self_nanos\":{}",
            r.id, s.id, s.parent, s.self_nanos,
        ));
        if s.parent == 0 {
            out.push_str(&format!(",\"reason\":\"{}\"", r.reason.as_str()));
            out.push_str(&format!(",\"outcome\":\"{outcome}\""));
            if let Some(e) = r.error {
                out.push(',');
                field_str(out, "error", e);
            }
        }
        out.push('}');
        event_close(out, r.opened_at_nanos.saturating_add(s.start_nanos), tid);
    }
}

fn meta_event(out: &mut String, first: &mut bool, tid: u64, kind: &str, name: &str) {
    event_open(out, first);
    out.push_str(&format!("\"name\":\"{kind}\",\"ph\":\"M\",\"args\":{{"));
    field_str(out, "name", name);
    out.push('}');
    event_close(out, 0, tid);
}

fn event_open(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('{');
}

fn event_close(out: &mut String, ts_nanos: u64, tid: u64) {
    out.push_str(&format!(
        ",\"ts\":{}.{:03},\"pid\":{TRACE_PID},\"tid\":{tid}}}",
        ts_nanos / 1000,
        ts_nanos % 1000
    ));
}

fn field_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    json_string(out, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::request::{mark, observe_stage, Op, RequestSampler, SamplerConfig};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// One errored request with one stage and one mark inside it.
    fn sample() -> (u64, Vec<SampledRequest>) {
        let clock = ManualClock::shared();
        let sampler = RequestSampler::new(
            SamplerConfig {
                baseline_one_in: 0,
                slowest_per_window: 0,
                ..SamplerConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let ctx = sampler.open("CACHE1", Op::Decompress, 4096);
        let id = ctx.id();
        observe_stage(
            "codec.decompress",
            Instant::now(),
            Duration::from_nanos(1234),
        );
        mark("managed.quarantine");
        clock.advance(50_000);
        ctx.mark_error("checksum");
        drop(ctx);
        (id, sampler.sampled())
    }

    #[test]
    fn sampled_requests_render_as_named_threads_of_spans_and_marks() {
        let (id, requests) = sample();
        let json = to_chrome_json(&requests);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0);
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains(&format!(
            "\"name\":\"thread_name\",\"ph\":\"M\",\"args\":{{\"name\":\"req:{id} CACHE1/decompress error [error]\"}}"
        )));
        // Root + stage render as complete events on the request's tid.
        assert!(json.contains(&format!("\"tid\":{id}}}")));
        assert!(json
            .contains("\"name\":\"decompress\",\"cat\":\"request\",\"ph\":\"X\",\"dur\":50.000"));
        // 1234 ns renders as 1.234 µs exactly (no float rounding).
        assert!(json.contains(
            "\"name\":\"codec.decompress\",\"cat\":\"request\",\"ph\":\"X\",\"dur\":1.234"
        ));
        assert!(json.contains("\"name\":\"managed.quarantine\",\"cat\":\"mark\",\"ph\":\"i\""));
        assert!(json.contains("\"outcome\":\"error\""));
        assert!(json.contains("\"error\":\"checksum\""));
        // Every event carries the uniform field set.
        let events = json.split_once("\"traceEvents\":[").expect("array").1;
        let mut count = 0;
        for obj in events.split("},{") {
            count += 1;
            for field in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
                assert!(obj.contains(field), "missing {field} in {obj}");
            }
        }
        // process_name + thread_name + root + stage + mark.
        assert_eq!(count, 5);
    }

    #[test]
    fn no_sampled_requests_is_still_a_loadable_trace() {
        let json = to_chrome_json(&[]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{"));
        assert!(json.contains("\"name\":\"process_name\""));
    }
}
