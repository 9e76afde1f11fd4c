//! Partition–aggregate query generation (paper §V-A).
//!
//! "In our simulator, we randomly choose a server to be the aggregator,
//! while the other 15 servers will then be the ISNs for each user query.
//! The aggregator will broadcast sub-queries to all ISNs."

use eprons_sim::SimRng;

use crate::arrivals::poisson_times;

/// One user query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Query id (sequence number).
    pub id: u64,
    /// Absolute issue time, seconds.
    pub time_s: f64,
    /// Index of the server acting as aggregator for this query.
    pub aggregator: usize,
}

/// Generates queries as a Poisson stream with random aggregators.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    /// Number of servers in the cluster (16 in the paper).
    pub num_servers: usize,
}

impl QueryGenerator {
    /// Creates a generator for a cluster of `num_servers`.
    ///
    /// # Panics
    /// Panics if `num_servers < 2` (a query needs at least one ISN).
    pub fn new(num_servers: usize) -> Self {
        assert!(num_servers >= 2, "cluster needs at least 2 servers");
        QueryGenerator { num_servers }
    }

    /// A Poisson query stream over `[0, duration)`.
    pub fn generate(&self, rng: &mut SimRng, rate_per_s: f64, duration_s: f64) -> Vec<Query> {
        poisson_times(rng, rate_per_s, duration_s)
            .into_iter()
            .enumerate()
            .map(|(i, t)| Query {
                id: i as u64,
                time_s: t,
                aggregator: rng.index(self.num_servers),
            })
            .collect()
    }
}

/// Splits a query stream into per-ISN sub-query arrival times: server `s`
/// receives a sub-query for every query it does not aggregate.
pub fn per_isn_arrivals(queries: &[Query], num_servers: usize) -> Vec<Vec<f64>> {
    let mut per = vec![Vec::new(); num_servers];
    for q in queries {
        for (s, arr) in per.iter_mut().enumerate() {
            if s != q.aggregator {
                arr.push(q.time_s);
            }
        }
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_poisson_stream_with_aggregators() {
        let mut rng = SimRng::seed_from_u64(21);
        let g = QueryGenerator::new(16);
        let qs = g.generate(&mut rng, 100.0, 50.0);
        let rate = qs.len() as f64 / 50.0;
        assert!((rate - 100.0).abs() < 10.0);
        assert!(qs.iter().all(|q| q.aggregator < 16));
        // Ids are sequential, times sorted.
        assert!(qs.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert_eq!(qs.last().unwrap().id as usize, qs.len() - 1);
    }

    #[test]
    fn aggregators_are_spread_uniformly() {
        let mut rng = SimRng::seed_from_u64(22);
        let g = QueryGenerator::new(16);
        let qs = g.generate(&mut rng, 500.0, 60.0);
        let mut counts = [0usize; 16];
        for q in &qs {
            counts[q.aggregator] += 1;
        }
        let expect = qs.len() as f64 / 16.0;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 0.25 * expect,
                "server {s} aggregated {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn per_isn_arrival_counts() {
        let mut rng = SimRng::seed_from_u64(23);
        let g = QueryGenerator::new(4);
        let qs = g.generate(&mut rng, 50.0, 20.0);
        let per = per_isn_arrivals(&qs, 4);
        // Each server receives a sub-query for every query it didn't
        // aggregate.
        for (s, arr) in per.iter().enumerate() {
            let aggregated = qs.iter().filter(|q| q.aggregator == s).count();
            assert_eq!(arr.len(), qs.len() - aggregated);
            assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_server_cluster_rejected() {
        QueryGenerator::new(1);
    }
}
