//! One telemetry handle for the whole stack.
//!
//! [`Telemetry`] bundles the three contexts every instrumented component
//! reports to — spans/metrics/traces ([`ObsContext`]), hierarchical
//! profiling ([`ProfContext`]) and the flight ring ([`FlightContext`]) —
//! so a component takes one value, once. Each context is an
//! `Option<Arc>`, so the default (all three disabled) costs one branch
//! per call site.
//!
//! The jobs that span the contexts live here too: the per-query window
//! ([`Telemetry::begin_query`] → [`QueryScope`]), the guard event that
//! goes to both the trace and the flight ring
//! ([`Telemetry::guard_event`]), and the breaker opening that goes to a
//! counter and the flight ring ([`Telemetry::breaker_open`]).

use std::fmt::Display;

use lqo_flight::{FlightContext, FlightEvent, Producer};
use lqo_obs::trace::{GuardEvent, QueryTrace};
use lqo_obs::ObsContext;
use lqo_prof::{ProfContext, QueryBind, QueryProfile};

/// The observability, profiling and flight-recorder contexts, passed
/// together. Cheap to clone; the default has all three disabled.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// Spans, metrics and per-query traces.
    pub obs: ObsContext,
    /// Hierarchical phase profiling with work-unit charges.
    pub prof: ProfContext,
    /// The black-box flight ring and its incident bundles.
    pub flight: FlightContext,
}

impl From<ObsContext> for Telemetry {
    fn from(obs: ObsContext) -> Telemetry {
        Telemetry {
            obs,
            ..Telemetry::default()
        }
    }
}

impl From<ProfContext> for Telemetry {
    fn from(prof: ProfContext) -> Telemetry {
        Telemetry {
            prof,
            ..Telemetry::default()
        }
    }
}

impl Telemetry {
    /// Whether any of the three contexts records anything.
    fn is_enabled(&self) -> bool {
        self.obs.is_enabled() || self.prof.is_enabled() || self.flight.is_enabled()
    }

    /// Open one query window on all three contexts: the obs trace, a
    /// profiler query id bound to the calling thread, and the flight
    /// window. `text` is formatted once, and only when some context is
    /// enabled.
    pub fn begin_query(&self, text: impl Display) -> QueryScope {
        let text = if self.is_enabled() {
            text.to_string()
        } else {
            String::new()
        };
        self.obs.begin_query(&text);
        let qid = self.prof.begin_query_id(&text);
        let bind = self.prof.bind_query(qid);
        self.flight.begin_query(&text);
        QueryScope {
            telemetry: self.clone(),
            qid,
            bind: Some(bind),
        }
    }

    /// Report a contained fault: push a [`GuardEvent`] onto the current
    /// query trace and, when a recorder is attached, publish the same
    /// event onto the flight ring.
    pub fn guard_event(&self, producer: Producer, component: &str, fault: &str, action: &str) {
        self.guard_event_with_detail(producer, component, fault, "", action);
    }

    /// Report that a breaker opened: count `lqo.guard.breaker_opens` and,
    /// when a recorder is attached, publish [`FlightEvent::Breaker`] in
    /// state `open` — an incident trigger.
    pub fn breaker_open(&self, producer: Producer, component: &str) {
        self.obs.count("lqo.guard.breaker_opens", 1);
        if self.flight.is_enabled() {
            self.flight.publish(
                producer,
                FlightEvent::Breaker {
                    component: component.to_string(),
                    state: "open".to_string(),
                },
            );
        }
    }

    /// [`Telemetry::guard_event`] whose trace fault carries a detail the
    /// ring does not: the trace records `fault:detail`, the ring `fault`
    /// (an empty `detail` records `fault` on both).
    pub fn guard_event_with_detail(
        &self,
        producer: Producer,
        component: &str,
        fault: &str,
        detail: &str,
        action: &str,
    ) {
        if self.flight.is_enabled() {
            self.flight.publish(
                producer,
                FlightEvent::Guard {
                    component: component.to_string(),
                    fault: fault.to_string(),
                    action: action.to_string(),
                },
            );
        }
        self.obs.with_query(|t| {
            t.push_guard(GuardEvent {
                component: component.to_string(),
                fault: if detail.is_empty() {
                    fault.to_string()
                } else {
                    format!("{fault}:{detail}")
                },
                action: action.to_string(),
            });
        });
    }
}

/// One open query window (see [`Telemetry::begin_query`]). Close it with
/// [`QueryScope::finish`]; a scope dropped unfinished (an early return, a
/// panic) closes the same way and discards what it collected, so no
/// profiler query stays active and no flight window stays open.
pub struct QueryScope {
    telemetry: Telemetry,
    qid: u64,
    /// The calling thread's profiler binding; `None` once closed.
    bind: Option<QueryBind>,
}

impl QueryScope {
    /// Close the window: the profiler query, then the obs trace, then
    /// the flight window (with the trace and the profile's folded
    /// stacks). `on_trace` sees the finished trace before the flight
    /// window closes, so whatever it publishes — a watch monitor's drift
    /// alarm, a cache invalidation — still belongs to this query's
    /// window. Returns the trace and the profile.
    pub fn finish(
        mut self,
        on_trace: impl FnOnce(&QueryTrace),
    ) -> (Option<QueryTrace>, Option<QueryProfile>) {
        self.close(on_trace)
    }

    fn close(
        &mut self,
        on_trace: impl FnOnce(&QueryTrace),
    ) -> (Option<QueryTrace>, Option<QueryProfile>) {
        let Some(bind) = self.bind.take() else {
            return (None, None);
        };
        let tel = &self.telemetry;
        let profile = tel.prof.end_query_id(self.qid);
        drop(bind);
        let trace = tel.obs.end_query();
        if let Some(trace) = &trace {
            on_trace(trace);
        }
        if tel.flight.is_enabled() {
            let folded = profile.as_ref().map(|p| p.profile.to_folded());
            tel.flight.end_query(trace.as_ref(), folded);
        }
        (trace, profile)
    }
}

impl Drop for QueryScope {
    fn drop(&mut self) {
        self.close(|_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scope_is_inert() {
        let tel = Telemetry::default();
        assert!(!tel.is_enabled());
        let scope = tel.begin_query("q");
        tel.guard_event(Producer::Guard, "c", "panic", "fallback");
        assert!(scope.finish(|_| panic!("no trace")).0.is_none());
    }

    #[test]
    fn scope_closes_prof_then_obs_then_flight() {
        let obs = ObsContext::enabled();
        let tel = Telemetry {
            obs: obs.clone(),
            prof: ProfContext::enabled(),
            flight: FlightContext::new(Default::default(), obs.clone()),
        };
        let scope = tel.begin_query("SELECT 1");
        drop(tel.prof.phase("plan"));
        tel.guard_event_with_detail(
            Producer::Guard,
            "exec",
            "work-regression",
            "ratio=4",
            "replan:native",
        );
        let mut seen = 0;
        let (trace, profile) = scope.finish(|t| seen = t.guard.len());
        assert_eq!(seen, 1);
        let trace = trace.expect("trace");
        assert_eq!(trace.guard[0].fault, "work-regression:ratio=4");
        let profile = profile.expect("profile");
        assert_eq!(profile.query, "SELECT 1");
        assert!(profile.profile.to_folded().contains("plan"));
        let ring = tel.flight.ring_snapshot();
        assert!(ring.iter().any(|r| matches!(
            &r.event,
            FlightEvent::Guard { fault, .. } if fault == "work-regression"
        )));
        // A regression cancel is a trigger: the bundle carries the trace.
        let bundles = tel.flight.bundles();
        assert_eq!(bundles.len(), 1);
        assert!(bundles[0].trace.is_some());
        assert_eq!(tel.prof.finished().len(), 1);
    }

    #[test]
    fn dropped_scope_leaves_nothing_open() {
        let tel = Telemetry {
            obs: ObsContext::enabled(),
            prof: ProfContext::enabled(),
            flight: FlightContext::enabled(),
        };
        {
            let _scope = tel.begin_query("abandoned");
            let _open = tel.prof.phase("parse");
        }
        // The profile was finished (not left active), and a new window
        // opens a fresh flight query.
        assert_eq!(tel.prof.finished().len(), 1);
        assert_eq!(tel.obs.finished_traces().len(), 1);
        let scope = tel.begin_query("next");
        let (trace, _) = scope.finish(|_| {});
        assert_eq!(trace.unwrap().query, "next");
    }
}
