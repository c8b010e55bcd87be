//! Untraced benchmark run: end-to-end metrics on the system allocator.

fn main() -> std::process::ExitCode {
    dynbench::main_with(false)
}
