//! A deadline on every step that calls into the library. A stuck step
//! (for instance a pool deadlock) becomes a reported failure instead
//! of a hung run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const IDLE: u64 = u64::MAX;
/// How often the watchdog looks at the armed step.
const POLL: Duration = Duration::from_millis(20);

struct Shared {
    epoch: Instant,
    /// Start of the armed step in ns since `epoch`, or `IDLE`.
    armed_at: AtomicU64,
    /// The armed step's deadline in ns.
    deadline_ns: AtomicU64,
    stop: AtomicBool,
}

pub struct Watchdog {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Watch steps armed with [`Watchdog::arm`]; if one stays armed past
    /// its deadline, call `on_fire` with how long it has run and the
    /// deadline.
    pub fn start(on_fire: impl FnOnce(Duration, Duration) + Send + 'static) -> Self {
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            armed_at: AtomicU64::new(IDLE),
            deadline_ns: AtomicU64::new(u64::MAX),
            stop: AtomicBool::new(false),
        });
        let s = shared.clone();
        let thread = std::thread::spawn(move || {
            while !s.stop.load(Ordering::SeqCst) {
                std::thread::sleep(POLL);
                let at = s.armed_at.load(Ordering::SeqCst);
                if at == IDLE {
                    continue;
                }
                // `arm` stores the deadline before the start, so this
                // is the armed step's own deadline.
                let deadline = Duration::from_nanos(s.deadline_ns.load(Ordering::SeqCst));
                let ran = s.epoch.elapsed().saturating_sub(Duration::from_nanos(at));
                if ran > deadline {
                    on_fire(ran, deadline);
                    return;
                }
            }
        });
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// Start watching a step that must end within `deadline`.
    pub fn arm(&self, deadline: Duration) {
        let s = &self.shared;
        s.deadline_ns
            .store(deadline.as_nanos() as u64, Ordering::SeqCst);
        s.armed_at
            .store(s.epoch.elapsed().as_nanos() as u64, Ordering::SeqCst);
    }

    pub fn disarm(&self) {
        self.shared.armed_at.store(IDLE, Ordering::SeqCst);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn fires_on_a_stuck_step_and_not_on_quick_ones() {
        let (tx, rx) = mpsc::channel();
        let dog = Watchdog::start(move |ran, deadline| {
            tx.send((ran, deadline)).expect("test receiver alive");
        });
        for _ in 0..5 {
            dog.arm(Duration::from_millis(40));
            std::thread::sleep(Duration::from_millis(2));
            dog.disarm();
        }
        // A long deadline is not cut short by an earlier, shorter one.
        dog.arm(Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(100));
        dog.disarm();
        assert!(
            rx.try_recv().is_err(),
            "steps within their deadline must not fire"
        );
        dog.arm(Duration::from_millis(40));
        let (ran, deadline) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("stuck step fires");
        assert_eq!(deadline, Duration::from_millis(40));
        assert!(ran > deadline);
        drop(dog);
    }
}
