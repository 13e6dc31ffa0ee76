// Fixture: fan-out through the one ordered primitive, and reductions
// built on it.

fn fan_out(items: &[Item]) -> Vec<Out> {
    par_ordered_map(items, 2, process)
}

fn reduce(parts: &[EdgeLoads]) -> EdgeLoads {
    EdgeLoads::par_merge(parts)
}

fn ranges(ranges: &[(usize, usize)]) -> Vec<Vec<f64>> {
    par_ordered_map(ranges, 2, fill)
}
