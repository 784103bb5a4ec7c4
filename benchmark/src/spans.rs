//! Spans recorded by the harness around its calls into each layer:
//! name, start, end and the span that was open when this one began.
//! They stay in memory and are written once, at exit, as a Chrome
//! trace-event file. The program's own hot paths carry no timer of ours.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug)]
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// The harness is single-threaded, so one stack of open spans is the
/// whole causal structure.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span named `name` under whichever span is open now.
    pub fn enter(&mut self, name: &str) {
        let parent = self.open.last().copied();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.open.push(self.spans.len());
        self.spans.push(Span { name: name.to_owned(), start_us, end_us: start_us, parent });
    }

    /// Closes the innermost open span; returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) -> f64 {
        let span = &mut self.spans[self.open.pop().expect("a span is open")];
        span.end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        (span.end_us - span.start_us) / 1e6
    }

    /// The spans as Chrome "complete" events (`ph: "X"`), with the
    /// parent's index in `args` so a reader can rebuild self time.
    pub fn chrome_trace(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(id, span)| {
            Json::obj([
                ("name", Json::str(&span.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_us)),
                ("dur", Json::Num(span.end_us - span.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("parent", span.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ]),
                ),
            ])
        });
        Json::obj([("traceEvents", Json::Arr(events.collect()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_the_parent_and_children_fit_inside_it() {
        let mut spans = Spans::new();
        spans.enter("outer");
        spans.enter("inner");
        assert!(spans.exit() >= 0.0);
        let outer = spans.exit();
        spans.enter("sibling");
        spans.exit();
        let trace = spans.chrome_trace();
        let events = trace.get("traceEvents").and_then(Json::as_arr).expect("events");
        let parent = |i: usize| events[i].get("args").and_then(|a| a.get("parent")).cloned();
        assert_eq!(parent(0), Some(Json::Null));
        assert_eq!(parent(1), Some(Json::Num(0.0)));
        assert_eq!(parent(2), Some(Json::Null));
        let dur = |i: usize| events[i].get("dur").and_then(Json::as_f64).expect("dur");
        assert!(dur(1) <= dur(0));
        assert!((dur(0) - outer * 1e6).abs() < 1.0);
    }
}
