//! Self-contained stand-in for the one piece of the tokio API this
//! workspace still uses: [`runtime::Runtime::new`] and
//! [`runtime::Runtime::block_on`] (the build environment has no registry
//! access, so external dependencies are provided by local crates
//! implementing exactly the surface the repo consumes).
//!
//! `block_on` drives a single future on the calling thread. Its waker
//! unparks that thread, so a pending future costs nothing until it is
//! woken; there is no task spawning, no I/O reactor and no timer. The
//! live agents (`crates/live`) run on blocking OS threads of their own,
//! and `live::run_live` completes on its first poll.

#![deny(missing_docs)]

/// The executor.
pub mod runtime {
    use std::future::Future;
    use std::pin::pin;
    use std::sync::Arc;
    use std::task::{Context, Poll, Wake, Waker};
    use std::thread::{self, Thread};

    /// Wakes the thread blocked in [`Runtime::block_on`].
    struct Unpark(Thread);

    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }

    /// A current-thread runtime.
    pub struct Runtime {
        _priv: (),
    }

    impl Runtime {
        /// Creates a runtime. Never fails (the `Result` mirrors tokio's
        /// signature so call sites read identically).
        pub fn new() -> std::io::Result<Runtime> {
            Ok(Runtime { _priv: () })
        }

        /// Runs `fut` to completion on the calling thread, parking it
        /// whenever the future is pending until its waker fires.
        pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
            let mut fut = pin!(fut);
            let waker = Waker::from(Arc::new(Unpark(thread::current())));
            let mut cx = Context::from_waker(&waker);
            loop {
                if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                    return v;
                }
                thread::park();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_returns_the_value() {
        let rt = runtime::Runtime::new().unwrap();
        assert_eq!(rt.block_on(async { 40 + 2 }), 42);
    }

    #[test]
    fn a_pending_future_resumes_when_woken_from_another_thread() {
        let rt = runtime::Runtime::new().unwrap();
        let mut woken = false;
        rt.block_on(std::future::poll_fn(|cx| {
            if woken {
                return std::task::Poll::Ready(());
            }
            woken = true;
            let waker = cx.waker().clone();
            std::thread::spawn(move || waker.wake());
            std::task::Poll::Pending
        }));
        assert!(woken);
    }
}
