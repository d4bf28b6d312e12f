// Fixture: a lock that exists only behind a handle, ranked on the handle's
// `type` alias and acquired through the alias's usual name. `bad` takes it
// while holding a lock ranked after it; the lock-rank gate must flag that,
// and must not read `node.write(…)` on the guard as an acquisition.
type NodeRef = std::sync::Arc<std::sync::Mutex<Node>>; // lock-rank: fixture.node 16 via node

struct Seed {
    // lock-rank: fixture.nodes 15
    nodes: std::sync::RwLock<Vec<NodeRef>>,
    // lock-rank: fixture.list 17
    list: std::sync::Mutex<Vec<usize>>,
}

impl Seed {
    fn good(&self, node: &NodeRef) {
        let mut node = node.lock().unwrap();
        if node.write(1) {
            self.list.lock().unwrap().push(0);
        }
    }

    fn bad(&self, node: &NodeRef) {
        let list = self.list.lock().unwrap();
        let node = node.lock().unwrap();
        drop(node);
        drop(list);
    }
}
