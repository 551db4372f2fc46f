//! Stages: named memory spaces in which actors execute (§4, §5).
//!
//! Each Ensemble VM instance is one stage; within it, the runtime creates a
//! thread per actor (the paper uses a pthread per actor on Linux). Actor
//! scheduling is dictated by inter-actor communication — blocking channel
//! operations park the thread, so the OS scheduler provides exactly the
//! communication-driven scheduling the paper describes, with preemptive
//! round-robin as the fallback.

use crate::actor::{Actor, ActorCtx, Control, FnActor};
use std::thread::{self, JoinHandle};
use trace::{SpanKind, TraceEvent, TraceSink};

/// A stage: spawn scope and join point for a set of actors.
#[derive(Debug)]
pub struct Stage {
    name: String,
    handles: Vec<(String, JoinHandle<u64>)>,
    trace: TraceSink,
}

/// Result of joining a stage: per-actor behaviour-iteration counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// `(actor name, behaviour iterations completed)` per spawned actor, in
    /// spawn order.
    pub actors: Vec<(String, u64)>,
}

impl Stage {
    /// Create a stage with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Stage {
        Stage {
            name: name.into(),
            handles: Vec::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Attach a trace sink: every subsequent [`Stage::spawn`] emits a
    /// wall-clock [`SpanKind::Spawn`] instant on the stage's track.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Spawn an actor: runs `constructor` once, then repeats `behaviour`
    /// until it returns [`Control::Stop`].
    pub fn spawn<A: Actor>(&mut self, name: impl Into<String>, mut actor: A) {
        let name = name.into();
        if self.trace.is_enabled() {
            self.trace.record(
                TraceEvent::instant(SpanKind::Spawn, &name, &self.name, self.trace.wall_ns())
                    .with_arg("clock", "wall"),
            );
        }
        let stage_name = self.name.clone();
        let thread_name = format!("{stage_name}/{name}");
        let ctx_name = name.clone();
        let handle = thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                let mut ctx = ActorCtx::new(ctx_name, stage_name);
                actor.constructor(&mut ctx);
                loop {
                    let control = actor.behaviour(&mut ctx);
                    ctx.bump();
                    // An unsupervised stage has nobody to report a `Fail`
                    // to, so both exits end the thread; a Supervisor wraps
                    // the loop itself and distinguishes them.
                    if control != Control::Continue {
                        break;
                    }
                }
                ctx.iterations()
            })
            .expect("failed to spawn actor thread");
        self.handles.push((name, handle));
    }

    /// Spawn a closure as an actor (no constructor step).
    pub fn spawn_fn<F>(&mut self, name: impl Into<String>, behaviour: F)
    where
        F: FnMut(&mut ActorCtx) -> Control + Send + 'static,
    {
        self.spawn(name, FnActor(behaviour));
    }

    /// Spawn a run-once actor: the closure executes a single time and the
    /// actor stops. Mirrors the common "boot-driver" pattern.
    pub fn spawn_once<F>(&mut self, name: impl Into<String>, body: F)
    where
        F: FnOnce(&mut ActorCtx) + Send + 'static,
    {
        let mut body = Some(body);
        self.spawn_fn(name, move |ctx| {
            if let Some(f) = body.take() {
                f(ctx);
            }
            Control::Stop
        });
    }

    /// Wait for every actor in the stage to stop.
    ///
    /// Panics propagate: if an actor thread panicked, `join` panics with a
    /// message naming the actor **and carrying the original panic
    /// payload's message** — silently swallowing actor failures (or their
    /// reasons) would make every test in the workspace unreliable.
    pub fn join(self) -> StageReport {
        let mut actors = Vec::with_capacity(self.handles.len());
        for (name, h) in self.handles {
            match h.join() {
                Ok(iterations) => actors.push((name, iterations)),
                Err(payload) => panic!(
                    "actor `{name}` panicked: {}",
                    crate::supervisor::panic_message(payload.as_ref())
                ),
            }
        }
        StageReport { actors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{buffered_channel, channel};

    #[test]
    fn listing2_send_receive_pair() {
        // The sender/receiver ensemble from Listing 2 of the paper: snd
        // sends linearly increasing values; rcv prints (here: collects).
        let (out, input) = channel::<i32>();
        let (done_out, done_in) = channel::<Vec<i32>>();
        let mut stage = Stage::new("home");
        let mut value = 1;
        let mut sent = 0;
        stage.spawn_fn("snd", move |_ctx| {
            out.send(&value).unwrap();
            value += 1;
            sent += 1;
            if sent == 5 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        let mut got = Vec::new();
        stage.spawn_fn("rcv", move |_ctx| match input.receive() {
            Ok(v) => {
                got.push(v);
                Control::Continue
            }
            Err(_) => {
                done_out.send_moved(std::mem::take(&mut got)).unwrap();
                Control::Stop
            }
        });
        let received = done_in.receive().unwrap();
        let report = stage.join();
        assert_eq!(received, vec![1, 2, 3, 4, 5]);
        assert_eq!(report.actors[0].0, "snd");
        assert_eq!(report.actors[0].1, 5);
    }

    #[test]
    fn constructor_runs_once() {
        struct C {
            constructed: u32,
            out: crate::channel::Out<u32>,
        }
        impl Actor for C {
            fn constructor(&mut self, _ctx: &mut ActorCtx) {
                self.constructed += 1;
            }
            fn behaviour(&mut self, ctx: &mut ActorCtx) -> Control {
                if ctx.iterations() == 2 {
                    self.out.send(&self.constructed).unwrap();
                    Control::Stop
                } else {
                    Control::Continue
                }
            }
        }
        let (out, input) = buffered_channel(1);
        let mut stage = Stage::new("s");
        stage.spawn(
            "c",
            C {
                constructed: 0,
                out,
            },
        );
        assert_eq!(input.receive().unwrap(), 1);
        stage.join();
    }

    #[test]
    fn spawn_once_runs_exactly_once() {
        let (out, input) = buffered_channel::<u32>(4);
        let mut stage = Stage::new("s");
        stage.spawn_once("boot", move |_ctx| {
            out.send(&7).unwrap();
        });
        let report = stage.join();
        assert_eq!(input.receive().unwrap(), 7);
        // The actor (and its Out endpoint) is gone: no second message.
        assert_eq!(
            input.try_receive(),
            Err(crate::channel::ChannelError::Closed)
        );
        assert_eq!(report.actors[0].1, 1);
    }

    #[test]
    #[should_panic(expected = "actor `bad` panicked: boom")]
    fn actor_panic_is_reported_at_join_with_payload() {
        let mut stage = Stage::new("s");
        stage.spawn_fn("bad", |_ctx| panic!("boom"));
        stage.join();
    }

    #[test]
    #[should_panic(expected = "actor `bad` panicked: fell over at step 3")]
    fn actor_panic_preserves_formatted_string_payloads() {
        let mut stage = Stage::new("s");
        let step = 3;
        stage.spawn_fn("bad", move |_ctx| panic!("fell over at step {step}"));
        stage.join();
    }

    #[test]
    fn control_fail_stops_an_unsupervised_actor() {
        let mut stage = Stage::new("s");
        stage.spawn_fn("f", |_ctx| Control::Fail);
        let report = stage.join();
        assert_eq!(report.actors[0].1, 1);
    }

    #[test]
    fn pipeline_of_three_actors() {
        // a -> b -> c: each stage adds one. Mirrors the LUD controller
        // "plumbing" pattern (Figure 4 of the paper).
        let (a_out, b_in) = channel::<i32>();
        let (b_out, c_in) = channel::<i32>();
        let (c_out, result_in) = channel::<i32>();
        let mut stage = Stage::new("pipe");
        stage.spawn_once("a", move |_| {
            a_out.send(&1).unwrap();
        });
        stage.spawn_once("b", move |_| {
            let v = b_in.receive().unwrap();
            b_out.send(&(v + 1)).unwrap();
        });
        stage.spawn_once("c", move |_| {
            let v = c_in.receive().unwrap();
            c_out.send(&(v + 1)).unwrap();
        });
        assert_eq!(result_in.receive().unwrap(), 3);
        stage.join();
    }
}
