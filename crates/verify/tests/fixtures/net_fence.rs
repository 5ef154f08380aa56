//! Lint fixture: raw sockets and thread spawns outside `crates/net`.
//! Scanned by `tests/lint_fixtures.rs` — never compiled, so it needs no
//! real dependencies. Every hazard here must be caught; the
//! commented-out ones must NOT be (comments are stripped before rules
//! run).

// let banned = std::net::TcpStream::connect(addr);  <- comment: must not fire

pub fn opens_raw_socket(addr: &str) -> std::io::Result<std::net::TcpStream> {
    // net-fence: sockets live behind the dyrs-net Transport trait.
    std::net::TcpStream::connect(addr)
}

pub fn spawns_thread() {
    // net-fence: ad-hoc threads make event order machine-dependent.
    std::thread::spawn(|| {});
}

pub fn scoped_threads() {
    // net-fence: crossbeam scopes are spawns too.
    crossbeam::scope(|s| drop(s)).expect("scope");
}

pub fn std_scoped_threads() {
    // net-fence: and so are std's.
    std::thread::scope(|s| drop(s));
}

pub fn says_tcpstream_in_a_string() -> &'static str {
    "TcpStream is only prose here and must not fire"
}
