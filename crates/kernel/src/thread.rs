//! Lightweight threads and the non-preemptive CAB scheduler.
//!
//! "We built the CAB kernel around lightweight processes similar to
//! Mach threads. [...] Threads execute as a set of coroutines, using a
//! simple, non-preemptive scheduler. [...] a thread will be awakened by
//! an event (such as the arrival of a packet), will take some action
//! (such as processing transport protocol headers), and will
//! voluntarily go back to waiting for another event" (§6.1).
//!
//! In the discrete-event simulation a thread's *logic* lives in the
//! protocol layers; [`Scheduler`] is the CPU-time arbiter. It
//! serializes bursts of work on the single SPARC, charges the 10–15 µs
//! register-window switch cost whenever the running thread changes, and
//! lets interrupt handlers preempt ("the datalink code is executed
//! entirely by interrupt handlers", §6.2.1) at the cheaper trap cost.
//!
//! # Examples
//!
//! ```
//! use nectar_kernel::thread::Scheduler;
//! use nectar_cab::timings::CabTimings;
//! use nectar_sim::time::{Dur, Time};
//!
//! let mut sched = Scheduler::new(CabTimings::prototype());
//! let a = sched.spawn("transport");
//! let b = sched.spawn("application");
//! let (_, end_a) = sched.run(Time::ZERO, a, Dur::from_micros(2));
//! // Running a different thread pays the register-window switch.
//! let (start_b, _) = sched.run(end_a, b, Dur::from_micros(1));
//! assert_eq!((start_b - end_a), CabTimings::prototype().thread_switch);
//! ```

use core::fmt;
use nectar_cab::timings::CabTimings;
use nectar_sim::telemetry::{EventKind, FlightId, Telemetry};
use nectar_sim::time::{Dur, Time};

/// Handle to one kernel thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(u32);

impl ThreadId {
    /// The index form, for table lookups.
    const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct ThreadInfo {
    name: String,
    cpu_used: Dur,
}

/// The CAB CPU-time arbiter.
#[derive(Clone, Debug)]
pub struct Scheduler {
    timings: CabTimings,
    threads: Vec<ThreadInfo>,
    current: Option<ThreadId>,
    cpu_free: Time,
    switches: u64,
    interrupts: u64,
    thread_busy: Dur,
    interrupt_busy: Dur,
    telemetry: Telemetry,
}

impl Scheduler {
    /// A scheduler with no threads and an idle CPU.
    pub fn new(timings: CabTimings) -> Scheduler {
        Scheduler {
            timings,
            threads: Vec::new(),
            current: None,
            cpu_free: Time::ZERO,
            switches: 0,
            interrupts: 0,
            thread_busy: Dur::ZERO,
            interrupt_busy: Dur::ZERO,
            telemetry: Telemetry::default(),
        }
    }

    /// The flight recorder (disabled by default). Its *subject* should
    /// be set to the owning CAB's number so switch events name it.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the flight recorder, e.g. to enable it.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Creates a thread.
    pub fn spawn(&mut self, name: impl Into<String>) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadInfo { name: name.into(), cpu_used: Dur::ZERO });
        id
    }

    /// The thread's name.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not spawned by this scheduler.
    pub fn name(&self, tid: ThreadId) -> &str {
        &self.threads[tid.index()].name
    }

    /// When the CPU next goes idle.
    pub fn cpu_free_at(&self) -> Time {
        self.cpu_free
    }

    /// Thread switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Interrupts taken so far.
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }

    /// Total CPU time charged to `tid`.
    pub fn cpu_used(&self, tid: ThreadId) -> Dur {
        self.threads[tid.index()].cpu_used
    }

    /// Total CPU time spent in thread context (bursts plus coroutine
    /// switch costs), across all threads.
    pub fn thread_busy(&self) -> Dur {
        self.thread_busy
    }

    /// Total CPU time spent in interrupt context (handler bodies plus
    /// trap entries).
    pub fn interrupt_busy(&self) -> Dur {
        self.interrupt_busy
    }

    /// Charges a burst of `work` to thread `tid`, ready to run at
    /// `now`. The burst starts when the CPU is free; if the CPU was
    /// last running a different thread, the coroutine switch cost
    /// (10–15 µs of SPARC register-window save/restore) is paid first.
    ///
    /// Returns `(start, end)` of the burst itself (after any switch).
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not spawned by this scheduler.
    pub fn run(&mut self, now: Time, tid: ThreadId, work: Dur) -> (Time, Time) {
        assert!(tid.index() < self.threads.len(), "unknown thread {tid}");
        let mut start = now.max(self.cpu_free);
        if self.current != Some(tid) {
            if let Some(prev) = self.current {
                start += self.timings.thread_switch;
                self.switches += 1;
                self.thread_busy += self.timings.thread_switch;
                let cab = self.telemetry.subject();
                self.telemetry.record(
                    start,
                    FlightId::NONE,
                    EventKind::ThreadSwitch { cab, from: prev.0, to: tid.0 },
                );
            }
            self.current = Some(tid);
        }
        let end = start + work;
        self.cpu_free = end;
        self.threads[tid.index()].cpu_used += work;
        self.thread_busy += work;
        (start, end)
    }

    /// Marks `tid` as the thread already holding the CPU without
    /// charging a switch — used when modelling a thread that has been
    /// running all along (e.g. the application thread that is about to
    /// call `send`), so the first charged burst does not pay a
    /// fictitious switch.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not spawned by this scheduler.
    pub fn assume_running(&mut self, tid: ThreadId) {
        assert!(tid.index() < self.threads.len(), "unknown thread {tid}");
        self.current = Some(tid);
    }

    /// Runs an interrupt handler raised at `now` for `work`. Interrupt
    /// handlers preempt the running coroutine (entering via the
    /// reserved SPARC trap register window) instead of waiting for it
    /// to yield; the preempted thread's remaining work is pushed back.
    ///
    /// Returns `(start, end)` of the handler body (after trap entry).
    pub fn run_interrupt(&mut self, now: Time, work: Dur) -> (Time, Time) {
        self.interrupts += 1;
        self.interrupt_busy += self.timings.interrupt_entry + work;
        let start = now + self.timings.interrupt_entry;
        let end = start + work;
        // Steal the CPU: whatever was scheduled is delayed by the
        // handler's occupancy.
        self.cpu_free = self.cpu_free.max(now) + self.timings.interrupt_entry + work;
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Scheduler {
        Scheduler::new(CabTimings::prototype())
    }

    #[test]
    fn same_thread_runs_without_switch_cost() {
        let mut s = sched();
        let t = s.spawn("worker");
        let (s1, e1) = s.run(Time::ZERO, t, Dur::from_micros(5));
        assert_eq!(s1, Time::ZERO);
        let (s2, _) = s.run(e1, t, Dur::from_micros(5));
        assert_eq!(s2, e1, "no switch cost when the same thread continues");
        assert_eq!(s.switches(), 0);
    }

    #[test]
    fn switching_threads_costs_ten_to_fifteen_microseconds() {
        let mut s = sched();
        let a = s.spawn("a");
        let b = s.spawn("b");
        let (_, e) = s.run(Time::ZERO, a, Dur::from_micros(1));
        let (start_b, _) = s.run(e, b, Dur::from_micros(1));
        let switch = start_b - e;
        assert!(switch >= Dur::from_micros(10) && switch <= Dur::from_micros(15), "{switch}");
        assert_eq!(s.switches(), 1);
    }

    #[test]
    fn first_dispatch_pays_no_switch() {
        let mut s = sched();
        let a = s.spawn("a");
        let (start, _) = s.run(Time::from_micros(3), a, Dur::from_micros(1));
        assert_eq!(start, Time::from_micros(3));
    }

    #[test]
    fn cpu_serializes_bursts() {
        let mut s = sched();
        let a = s.spawn("a");
        let (_, e1) = s.run(Time::ZERO, a, Dur::from_micros(10));
        // A burst requested at t=0 for the same thread still waits.
        let (s2, _) = s.run(Time::ZERO, a, Dur::from_micros(1));
        assert_eq!(s2, e1);
    }

    #[test]
    fn interrupts_preempt_instead_of_waiting() {
        let mut s = sched();
        let a = s.spawn("a");
        // A long application burst holds the CPU.
        s.run(Time::ZERO, a, Dur::from_millis(1));
        // The packet interrupt at 100 us does not wait for it.
        let (start, end) = s.run_interrupt(Time::from_micros(100), Dur::from_micros(3));
        assert_eq!(start, Time::from_micros(100) + CabTimings::prototype().interrupt_entry);
        assert_eq!(end - start, Dur::from_micros(3));
        // The preempted work finishes later.
        assert!(s.cpu_free_at() > Time::from_millis(1));
        assert_eq!(s.interrupts(), 1);
    }

    #[test]
    fn per_thread_cpu_accounting() {
        let mut s = sched();
        let a = s.spawn("a");
        let b = s.spawn("b");
        s.run(Time::ZERO, a, Dur::from_micros(7));
        s.run(Time::from_millis(1), b, Dur::from_micros(3));
        s.run(Time::from_millis(2), a, Dur::from_micros(1));
        assert_eq!(s.cpu_used(a), Dur::from_micros(8));
        assert_eq!(s.cpu_used(b), Dur::from_micros(3));
        assert_eq!(s.switches(), 2);
    }

    #[test]
    fn switches_reach_the_flight_recorder() {
        let mut s = sched();
        s.telemetry_mut().set_enabled(true);
        s.telemetry_mut().set_subject(3);
        let a = s.spawn("a");
        let b = s.spawn("b");
        let (_, e) = s.run(Time::ZERO, a, Dur::from_micros(1));
        s.run(e, b, Dur::from_micros(1));
        let evs: Vec<_> = s.telemetry().events().collect();
        assert_eq!(evs.len(), 1);
        match evs[0].kind {
            EventKind::ThreadSwitch { cab, from, to } => {
                assert_eq!(cab, 3);
                assert_eq!((from, to), (0, 1));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn busy_time_accounting() {
        let mut s = sched();
        let a = s.spawn("a");
        let b = s.spawn("b");
        s.run(Time::ZERO, a, Dur::from_micros(5));
        s.run(Time::from_millis(1), b, Dur::from_micros(5));
        let t = CabTimings::prototype();
        assert_eq!(s.thread_busy(), Dur::from_micros(10) + t.thread_switch);
        s.run_interrupt(Time::from_millis(2), Dur::from_micros(3));
        assert_eq!(s.interrupt_busy(), Dur::from_micros(3) + t.interrupt_entry);
    }

    #[test]
    fn names_are_kept() {
        let mut s = sched();
        let t = s.spawn("byte-stream");
        assert_eq!(s.name(t), "byte-stream");
    }

    #[test]
    #[should_panic]
    fn foreign_thread_rejected() {
        let mut s1 = sched();
        let mut s2 = sched();
        let foreign = s2.spawn("other");
        let _ = s2; // silence unused warnings in release configs
        s1.run(Time::ZERO, foreign, Dur::from_micros(1));
    }
}
