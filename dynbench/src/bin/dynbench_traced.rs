//! Traced benchmark run: per-layer metrics, with spans on, the `Concat`
//! timing wrapper and the layer-tagged counting allocator.

#[global_allocator]
static ALLOC: dynbench::alloc::TaggedAlloc = dynbench::alloc::TaggedAlloc;

fn main() -> std::process::ExitCode {
    dynbench::main_with(true)
}
