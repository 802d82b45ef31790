//! Path computation: hop-count Dijkstra and Yen's k-shortest loopless paths.

use crate::graph::{LinkId, Network, NodeId};
use std::collections::BinaryHeap;

/// A loopless path: the node sequence and the links connecting them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    /// Nodes visited, `src` first, `dst` last.
    pub nodes: Vec<NodeId>,
    /// Links traversed (`nodes.len() - 1` of them).
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// Shortest path by hop count, avoiding `banned_nodes`/`banned_links`
/// (empty slices for a plain query). Returns `None` when disconnected.
pub fn shortest_path(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[NodeId],
    banned_links: &[LinkId],
) -> Option<Path> {
    let n = net.num_nodes() as usize;
    let mut dist = vec![u32::MAX; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32)>> = BinaryHeap::new();
    let node_banned = |x: NodeId| banned_nodes.contains(&x);
    if node_banned(src) || node_banned(dst) {
        return None;
    }
    dist[src.0 as usize] = 0;
    heap.push(std::cmp::Reverse((0, src.0)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if u == dst.0 {
            break;
        }
        for &(v, link) in net.neighbors(NodeId(u)) {
            if node_banned(v) || banned_links.contains(&link) {
                continue;
            }
            let nd = d + 1;
            if nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                prev[v.0 as usize] = Some((NodeId(u), link));
                heap.push(std::cmp::Reverse((nd, v.0)));
            }
        }
    }
    if dist[dst.0 as usize] == u32::MAX {
        return None;
    }
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, l) = prev[cur.0 as usize].expect("path chain intact");
        nodes.push(p);
        links.push(l);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Path { nodes, links })
}

/// Yen's algorithm: up to `k` loopless paths in non-decreasing hop count.
pub fn k_shortest_paths(net: &Network, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    let mut found: Vec<Path> = Vec::new();
    let Some(first) = shortest_path(net, src, dst, &[], &[]) else {
        return found;
    };
    found.push(first);
    let mut candidates: Vec<Path> = Vec::new();
    while found.len() < k {
        let last = found.last().unwrap().clone();
        // For each spur node in the last found path...
        for i in 0..last.nodes.len() - 1 {
            let spur = last.nodes[i];
            let root_nodes = &last.nodes[..=i];
            let root_links = &last.links[..i];
            // Ban links used by previous paths sharing this root.
            let mut banned_links: Vec<LinkId> = Vec::new();
            for p in found.iter().chain(candidates.iter()) {
                if p.nodes.len() > i && p.nodes[..=i] == *root_nodes {
                    if let Some(&l) = p.links.get(i) {
                        banned_links.push(l);
                    }
                }
            }
            // Ban root nodes except the spur itself (looplessness).
            let banned_nodes: Vec<NodeId> = root_nodes[..i].to_vec();
            if let Some(spur_path) = shortest_path(net, spur, dst, &banned_nodes, &banned_links) {
                let mut nodes = root_nodes.to_vec();
                nodes.extend_from_slice(&spur_path.nodes[1..]);
                let mut links = root_links.to_vec();
                links.extend_from_slice(&spur_path.links);
                let candidate = Path { nodes, links };
                if !found.contains(&candidate) && !candidates.contains(&candidate) {
                    candidates.push(candidate);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take the shortest candidate.
        let best = candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.hops())
            .map(|(i, _)| i)
            .unwrap();
        found.push(candidates.swap_remove(best));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortest_on_line() {
        let net = Network::line(5, 2);
        let p = shortest_path(&net, NodeId(0), NodeId(4), &[], &[]).unwrap();
        assert_eq!(p.hops(), 4);
        assert_eq!(p.nodes.first(), Some(&NodeId(0)));
        assert_eq!(p.nodes.last(), Some(&NodeId(4)));
    }

    #[test]
    fn disconnected_returns_none() {
        let net = Network::new(3, 2); // no links
        assert!(shortest_path(&net, NodeId(0), NodeId(2), &[], &[]).is_none());
    }

    #[test]
    fn banned_link_forces_detour_on_ring() {
        let net = Network::ring(6, 2);
        let direct = shortest_path(&net, NodeId(0), NodeId(1), &[], &[]).unwrap();
        assert_eq!(direct.hops(), 1);
        let detour = shortest_path(&net, NodeId(0), NodeId(1), &[], &[direct.links[0]]).unwrap();
        assert_eq!(detour.hops(), 5);
    }

    #[test]
    fn yen_finds_both_ring_directions() {
        let net = Network::ring(6, 2);
        let paths = k_shortest_paths(&net, NodeId(0), NodeId(3), 4);
        // A 6-ring has exactly two loopless 0→3 paths, both of 3 hops.
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].hops(), 3);
        assert_eq!(paths[1].hops(), 3);
        assert_ne!(paths[0], paths[1]);
    }

    #[test]
    fn yen_on_nsfnet_is_sorted_and_loopless() {
        let net = Network::nsfnet(4);
        let paths = k_shortest_paths(&net, NodeId(0), NodeId(13), 5);
        assert!(paths.len() >= 3);
        for w in paths.windows(2) {
            assert!(w[0].hops() <= w[1].hops(), "paths must be sorted");
        }
        for p in &paths {
            let mut seen = std::collections::HashSet::new();
            assert!(p.nodes.iter().all(|n| seen.insert(*n)), "loopless");
            assert_eq!(p.nodes.len(), p.links.len() + 1);
            // Consecutive nodes must actually be joined by the listed link.
            for (i, l) in p.links.iter().enumerate() {
                let (a, b) = net.endpoints(*l);
                let (u, v) = (p.nodes[i], p.nodes[i + 1]);
                assert!((a, b) == (u, v) || (a, b) == (v, u));
            }
        }
    }

    #[test]
    fn yen_k1_equals_dijkstra() {
        let net = Network::nsfnet(4);
        let d = shortest_path(&net, NodeId(2), NodeId(12), &[], &[]).unwrap();
        let y = k_shortest_paths(&net, NodeId(2), NodeId(12), 1);
        assert_eq!(y.len(), 1);
        assert_eq!(y[0].hops(), d.hops());
    }
}
