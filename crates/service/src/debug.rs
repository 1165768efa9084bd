//! The line protocol's control words and the forensic debug surfaces
//! behind them: one table, served by the gateway on both transports.
//!
//! A request line that [`control`] recognises is a control word, not a
//! job:
//!
//! * `v1` (or any `v<N>`) — optional version pinning: the server replies
//!   `ok v1` if it speaks that version, and otherwise answers
//!   `error: unsupported protocol version …` and closes the connection;
//! * `metrics`, `flight`, `attribution` — the read-only surfaces
//!   (Prometheus scrape, flight-ring dump, cost-attribution report),
//!   framed as `<word>_lines=N` followed by exactly N lines;
//! * `profile [seconds=N] [hz=N]` — a sampling window, answered with the
//!   folded stacks framed as `profile_lines=N`;
//! * `quit` — `bye`, then this connection closes;
//! * `shutdown` — `bye`, then the whole server stops.
//!
//! Over HTTP each surface answers `GET` on its [`Surface::path`] with the
//! same text unframed, and `GET /debug/profile?seconds=N&hz=N` runs the
//! same window.

use cqfd_flight::{Attribution, ProfileOptions};
use cqfd_obs::Snapshot;
use std::time::Duration;

/// The protocol version the line protocol speaks, greeted on connect
/// (`cqfd-service v1`) and accepted as a version-pinning word.
pub const PROTOCOL_VERSION: &str = "v1";

/// Longest profile window a remote client may request, in seconds. The
/// gateway runs the window on a detached sampler thread.
pub const MAX_PROFILE_SECONDS: u64 = 30;

/// A read-only debug surface: one text, served as the framed reply to a
/// line-protocol control word and as the body of an HTTP `GET`.
#[derive(Debug)]
pub struct Surface {
    /// The control word, which also names the frame (`<word>_lines=N`).
    pub word: &'static str,
    /// The HTTP path that answers `GET` with the unframed text.
    pub path: &'static str,
    /// The HTTP `Content-Type` of that answer.
    pub content_type: &'static str,
    /// Renders the surface's current text.
    pub text: fn() -> String,
}

/// Every read-only surface. `profile` is not among them: it samples for
/// a window first, so the server runs it off its serving thread.
static SURFACES: [Surface; 3] = [
    Surface {
        word: "metrics",
        path: "/metrics",
        content_type: "text/plain; version=0.0.4",
        text: metrics_text,
    },
    Surface {
        word: "flight",
        path: "/debug/flight",
        content_type: "text/plain",
        text: flight_text,
    },
    Surface {
        word: "attribution",
        path: "/debug/attribution",
        content_type: "text/plain",
        text: attribution_text,
    },
];

/// The surface an HTTP `GET` of `path` reads, if any.
pub fn surface_at(path: &str) -> Option<&'static Surface> {
    SURFACES.iter().find(|s| s.path == path)
}

/// What a control word asks of the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// Send this reply and keep serving the connection.
    Reply(String),
    /// Send this reply, then close the connection.
    Close(String),
    /// Send `bye`, close the connection, and stop the server.
    Shutdown,
    /// Sample for `seconds` at `hz` Hz, then send the folded stacks
    /// framed as `profile_lines=N` (see [`profile_folded`]). The window
    /// blocks, so the server runs it off its serving thread.
    Profile {
        /// Window length.
        seconds: u64,
        /// Sampling rate.
        hz: u32,
    },
}

/// Looks a trimmed request line up in the control-word table. `None`
/// means the line is not a control word: it goes to the job parser.
///
/// Only `profile` takes arguments; every other word must stand alone on
/// its line, so `metrics now` is a (bad) job line, not a scrape.
pub fn control(line: &str) -> Option<Control> {
    let (word, args) = line.split_once(' ').unwrap_or((line, ""));
    if word == "profile" {
        return Some(match parse_profile_args(args) {
            Ok((seconds, hz)) => Control::Profile { seconds, hz },
            Err(e) => Control::Reply(format!("error: {e}")),
        });
    }
    if !args.is_empty() {
        return None;
    }
    match word {
        "quit" => Some(Control::Close("bye".into())),
        "shutdown" => Some(Control::Shutdown),
        PROTOCOL_VERSION => Some(Control::Reply(format!("ok {PROTOCOL_VERSION}"))),
        v if is_version_token(v) => Some(Control::Close(format!(
            "error: unsupported protocol version `{v}` (server speaks {PROTOCOL_VERSION})"
        ))),
        w => SURFACES
            .iter()
            .find(|s| s.word == w)
            .map(|s| Control::Reply(framed_reply(s.word, &(s.text)()))),
    }
}

/// Is this word a version token `v<N>`? (No job kind starts with a bare
/// `v` followed by digits, so the token can share the line namespace.)
fn is_version_token(word: &str) -> bool {
    word.strip_prefix('v')
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// The process-wide `cqfd-obs` registry as Prometheus text exposition.
fn metrics_text() -> String {
    cqfd_obs::prom::render(&cqfd_obs::global().snapshot())
}

/// The newest 256 flight-ring records as JSONL (counted under
/// `cqfd_flight_dumps_total{cause="request"}`).
fn flight_text() -> String {
    cqfd_flight::dump("request", 256)
}

/// The process-lifetime cost-attribution report: counter totals since
/// start (the "before" snapshot is empty) joined with span wall times
/// still held in the flight ring.
fn attribution_text() -> String {
    let empty = Snapshot {
        families: Vec::new(),
    };
    let now = cqfd_obs::global().snapshot();
    let records = cqfd_obs::jsonl::parse_lines(&cqfd_flight::recorder().snapshot_jsonl(usize::MAX))
        .unwrap_or_default();
    Attribution::between(&empty, &now)
        .with_spans(&records)
        .render()
}

/// Runs a sampling window and returns flamegraph folded-stack text.
/// Blocks for the (clamped) window — callers that must stay responsive
/// run it from a dedicated thread. A window that saw no frames returns a
/// single explanatory comment line rather than empty output.
pub fn profile_folded(seconds: u64, hz: u32) -> String {
    let profile = cqfd_flight::sample(ProfileOptions {
        duration: Duration::from_secs(seconds.clamp(1, MAX_PROFILE_SECONDS)),
        hz,
    });
    let text = profile.folded_text();
    if text.is_empty() {
        format!(
            "# no samples: no thread held a span during the {}s window ({} ticks)\n",
            seconds.clamp(1, MAX_PROFILE_SECONDS),
            profile.ticks
        )
    } else {
        text
    }
}

/// Parses `key=value` tokens of a `profile` control word (`seconds=N`,
/// `hz=N`; unknown keys rejected). Returns `(seconds, hz)`. These are the
/// window limits for every profile, remote or local; each error about a
/// value starts with its key, so `cqfd profile` can name its flag.
pub fn parse_profile_args(args: &str) -> Result<(u64, u32), String> {
    let mut seconds = 2u64;
    let mut hz = 97u32;
    for tok in args.split_whitespace() {
        match tok.split_once('=') {
            Some(("seconds", v)) => {
                seconds = v
                    .parse::<u64>()
                    .map_err(|_| format!("seconds `{v}` is not a number"))?;
                if seconds == 0 || seconds > MAX_PROFILE_SECONDS {
                    return Err(format!(
                        "seconds must be 1..={MAX_PROFILE_SECONDS}, got {seconds}"
                    ));
                }
            }
            Some(("hz", v)) => {
                hz = v
                    .parse::<u32>()
                    .map_err(|_| format!("hz `{v}` is not a number"))?;
                if hz == 0 || hz > 1000 {
                    return Err(format!("hz must be 1..=1000, got {hz}"));
                }
            }
            _ => return Err(format!("unknown profile argument `{tok}`")),
        }
    }
    Ok((seconds, hz))
}

/// Frames multi-line debug text the way the line protocol frames every
/// bulk reply: a `<word>_lines=N` header, then the N lines.
pub fn framed_reply(word: &str, text: &str) -> String {
    let mut reply = format!("{word}_lines={}", text.lines().count());
    for l in text.lines() {
        reply.push('\n');
        reply.push_str(l);
    }
    reply
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits a framed reply into its header count and payload lines,
    /// checking the count matches.
    fn unframe(reply: &str, word: &str) -> Vec<String> {
        let mut lines = reply.lines();
        let head = lines.next().expect("frame header");
        let n: usize = head
            .strip_prefix(&format!("{word}_lines="))
            .unwrap_or_else(|| panic!("bad frame header for {word}: {head}"))
            .parse()
            .expect("frame count");
        let payload: Vec<String> = lines.map(str::to_string).collect();
        assert_eq!(payload.len(), n, "{word}: header count vs payload");
        payload
    }

    fn reply(line: &str) -> String {
        match control(line) {
            Some(Control::Reply(text)) => text,
            other => panic!("`{line}` should be a plain reply, got {other:?}"),
        }
    }

    #[test]
    fn quit_says_bye_and_closes() {
        assert_eq!(control("quit"), Some(Control::Close("bye".into())));
    }

    #[test]
    fn shutdown_stops_the_server() {
        assert_eq!(control("shutdown"), Some(Control::Shutdown));
    }

    #[test]
    fn version_word_pins_v1_and_refuses_others() {
        assert_eq!(control("v1"), Some(Control::Reply("ok v1".into())));
        assert_eq!(
            control("v2"),
            Some(Control::Close(
                "error: unsupported protocol version `v2` (server speaks v1)".into()
            ))
        );
        assert_eq!(
            control("v10"),
            Some(Control::Close(
                "error: unsupported protocol version `v10` (server speaks v1)".into()
            ))
        );
    }

    #[test]
    fn metrics_word_frames_the_prometheus_scrape() {
        let payload = unframe(&reply("metrics"), "metrics");
        assert!(
            payload.iter().any(|l| l == "# TYPE cqfd_build_info gauge"),
            "{payload:?}"
        );
    }

    #[test]
    fn flight_word_frames_the_ring_as_jsonl() {
        let payload = unframe(&reply("flight"), "flight");
        assert!(cqfd_obs::jsonl::parse_lines(&payload.join("\n")).is_ok());
    }

    #[test]
    fn attribution_word_frames_the_report() {
        let payload = unframe(&reply("attribution"), "attribution");
        assert_eq!(payload[0], "# cqfd cost attribution");
        assert!(payload[1].starts_with("totals: stages="), "{payload:?}");
        for section in ["## rules", "## predicates", "## span timings"] {
            assert!(
                payload.iter().any(|l| l.starts_with(section)),
                "{section}: {payload:?}"
            );
        }
    }

    #[test]
    fn profile_word_opens_a_window_or_says_why_not() {
        assert_eq!(
            control("profile"),
            Some(Control::Profile { seconds: 2, hz: 97 })
        );
        assert_eq!(
            control("profile seconds=1 hz=50"),
            Some(Control::Profile { seconds: 1, hz: 50 })
        );
        assert_eq!(
            reply("profile seconds=99"),
            "error: seconds must be 1..=30, got 99"
        );
        assert_eq!(reply("profile hz=fast"), "error: hz `fast` is not a number");
        assert_eq!(
            reply("profile bogus=1"),
            "error: unknown profile argument `bogus=1`"
        );
    }

    #[test]
    fn everything_else_is_a_job_line() {
        for line in [
            "",
            "determine instance=projection",
            "quit now",
            "metrics x",
            "shutdownx",
            "profiles",
            "profile\tseconds=1",
            "v",
            "v1x",
            "v1 x",
            "version",
        ] {
            assert_eq!(control(line), None, "`{line}`");
        }
    }

    #[test]
    fn each_surface_answers_its_word_and_its_path() {
        for s in &SURFACES {
            assert!(std::ptr::eq(surface_at(s.path).expect("path"), s));
            assert!(
                matches!(control(s.word), Some(Control::Reply(r)) if r.starts_with(&format!("{}_lines=", s.word)))
            );
        }
        assert!(surface_at("/debug/profile").is_none());
        assert!(surface_at("/healthz").is_none());
    }

    #[test]
    fn profile_args_parse_and_validate() {
        assert_eq!(parse_profile_args(""), Ok((2, 97)));
        assert_eq!(parse_profile_args("seconds=5 hz=250"), Ok((5, 250)));
        assert!(parse_profile_args("seconds=0").is_err());
        assert!(parse_profile_args("seconds=31").is_err());
        assert!(parse_profile_args("hz=0").is_err());
        assert!(parse_profile_args("hz=2000").is_err());
        assert!(parse_profile_args("bogus=1").is_err());
        assert!(parse_profile_args("seconds").is_err());
    }

    #[test]
    fn framed_reply_counts_lines() {
        assert_eq!(framed_reply("flight", ""), "flight_lines=0");
        assert_eq!(framed_reply("flight", "a\nb\n"), "flight_lines=2\na\nb");
    }
}
