//! Keeping injected panics off stderr.

use std::sync::Once;

/// How every panic an injected bug raises begins. The panic sites
/// format their message from it and [`quiet_injected_panics`] filters
/// on it, so the two cannot drift apart.
pub const INJECTED_PANIC_PREFIX: &str = "injected filesystem bug";

/// Keep the panic hook from printing a message and backtrace for every
/// panic an injected bug raises: RAE catches those and recovers, so the
/// output is noise. Every other panic still reaches the hook that was
/// installed before the first call. Only the first call in a process
/// installs the filter, so tests can call it freely.
pub fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            if !msg.is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX)) {
                previous(info);
            }
        }));
    });
}
