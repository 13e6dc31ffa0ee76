// Fixture: raw rayon fan-outs outside the one ordered primitive.

fn fan_out(items: &[Item]) -> Vec<Out> {
    items.par_iter().map(process).collect()
}

fn consume(items: Vec<Item>) -> Vec<Out> {
    items.into_par_iter().map(process).collect()
}

fn stream(it: impl Iterator<Item = Item>) -> Vec<Out> {
    it.par_bridge().map(process).collect()
}
