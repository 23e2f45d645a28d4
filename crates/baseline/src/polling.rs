//! The client-side polling baseline (the production predecessor).
//!
//! Client-side polling "is easy to implement client-side, and its
//! request-response model easily copes with server and connection failures"
//! — but "80% of the queries return no new data", the query shape is
//! expensive (range + intersect over many shards), and the polling interval
//! puts a floor under freshness (§1, §2).

use simkit::time::{SimDuration, SimTime};
use was::service::{Rv, WebApplicationServer};
use was::WasError;

/// The result of one poll.
#[derive(Clone, Debug, PartialEq)]
pub struct PollOutcome {
    /// Comment object ids returned, newest first.
    pub comment_ids: Vec<u64>,
    /// Whether the poll returned no new data.
    pub empty: bool,
}

/// A device polling the WAS for live-video comments.
///
/// Tracks the `since` watermark so each poll asks only for newer comments —
/// the paper's "fetch all comments on live video V since timestamp X".
pub struct ClientPoller {
    video: u64,
    interval: SimDuration,
    next_poll: SimTime,
    since_ms: u64,
    polls: u64,
    empty_polls: u64,
    ranked_head: usize,
}

impl ClientPoller {
    /// Creates a poller for `video` with the given polling interval.
    pub fn new(video: u64, interval: SimDuration, start: SimTime) -> Self {
        ClientPoller {
            video,
            interval,
            next_poll: start + interval,
            since_ms: 0,
            polls: 0,
            empty_polls: 0,
            ranked_head: 0,
        }
    }

    /// Makes each poll additionally re-fetch the top `n` recent comments.
    ///
    /// Ranked UIs cannot get by on a `since` watermark alone: every poll
    /// re-reads the comment head so the client can re-rank it — "duplicate
    /// comment queries per viewer are eliminated with Bladerunner" (§5).
    pub fn with_ranked_head(mut self, n: usize) -> Self {
        self.ranked_head = n;
        self
    }

    /// The instant of the next scheduled poll.
    pub fn next_poll_at(&self) -> SimTime {
        self.next_poll
    }

    /// Fraction of polls that returned nothing.
    pub fn empty_fraction(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.empty_polls as f64 / self.polls as f64
        }
    }

    /// Defers the scheduled poll by one interval without querying (the
    /// request never left the device — flaky-link model). Pending comments
    /// accumulate until the next successful poll.
    pub fn defer(&mut self, now: SimTime) {
        self.next_poll = now + self.interval;
    }

    /// Executes the scheduled poll against the WAS and advances the
    /// schedule.
    pub fn poll(
        &mut self,
        was: &mut WebApplicationServer,
        region: u16,
        now: SimTime,
    ) -> Result<PollOutcome, WasError> {
        self.polls += 1;
        self.next_poll = now + self.interval;
        let q = if self.ranked_head > 0 {
            format!(
                "{{ video(id: {}) {{ comments(first: {}) {{ text }} commentsSince(since: {}, first: 50) {{ text }} }} }}",
                self.video, self.ranked_head, self.since_ms
            )
        } else {
            format!(
                "{{ video(id: {}) {{ commentsSince(since: {}, first: 50) {{ text }} }} }}",
                self.video, self.since_ms
            )
        };
        let outcome = was.execute_query(region, &q)?;
        let comments = outcome
            .response
            .get("video")
            .and_then(|v| v.get("commentsSince"))
            .map(Rv::items)
            .unwrap_or_default()
            .to_vec();
        let comment_ids: Vec<u64> = comments
            .iter()
            .filter_map(|c| c.get("id").and_then(Rv::as_int).map(|i| i as u64))
            .collect();
        // Advance the watermark to "now" (application timestamps are ms).
        self.since_ms = now.as_millis() + 1;
        let empty = comments.is_empty();
        if empty {
            self.empty_polls += 1;
        }
        Ok(PollOutcome { comment_ids, empty })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao::{Tao, TaoConfig};

    fn setup() -> (WebApplicationServer, u64, u64) {
        let mut was = WebApplicationServer::new(Tao::new(TaoConfig::small()));
        let video = was.create_video("v");
        let user = was.create_user("u", "en");
        (was, video, user)
    }

    fn post(was: &mut WebApplicationServer, video: u64, user: u64, now_ms: u64) {
        was.execute_mutation(
            &format!(
                r#"mutation {{ postComment(videoId: {video}, authorId: {user}, text: "a comment at {now_ms} of reasonable length") {{ id }} }}"#
            ),
            now_ms,
        )
        .unwrap();
    }

    #[test]
    fn poll_returns_only_new_comments() {
        let (mut was, video, user) = setup();
        let mut p = ClientPoller::new(video, SimDuration::from_secs(2), SimTime::ZERO);
        post(&mut was, video, user, 1_000);
        let o = p.poll(&mut was, 0, SimTime::from_secs(2)).unwrap();
        assert_eq!(o.comment_ids.len(), 1);
        assert!(!o.empty);
        // Nothing new since the watermark advanced.
        let o = p.poll(&mut was, 0, SimTime::from_secs(4)).unwrap();
        assert!(o.empty);
        // A newer comment appears after the watermark.
        post(&mut was, video, user, 5_000);
        let o = p.poll(&mut was, 0, SimTime::from_secs(6)).unwrap();
        assert_eq!(o.comment_ids.len(), 1);
    }

    #[test]
    fn empty_fraction_reflects_idle_videos() {
        let (mut was, video, user) = setup();
        let mut p = ClientPoller::new(video, SimDuration::from_secs(1), SimTime::ZERO);
        // One burst of activity, then silence.
        post(&mut was, video, user, 500);
        for s in 1..=10 {
            p.poll(&mut was, 0, SimTime::from_secs(s)).unwrap();
        }
        assert!(p.empty_fraction() >= 0.9, "{}", p.empty_fraction());
    }

    #[test]
    fn polls_schedule_at_fixed_interval() {
        let (mut was, video, _user) = setup();
        let mut p = ClientPoller::new(video, SimDuration::from_secs(3), SimTime::ZERO);
        assert_eq!(p.next_poll_at(), SimTime::from_secs(3));
        p.poll(&mut was, 0, SimTime::from_secs(3)).unwrap();
        assert_eq!(p.next_poll_at(), SimTime::from_secs(6));
    }

    #[test]
    fn ranked_head_polls_reread_redundantly() {
        let (mut was, video, user) = setup();
        for i in 0..30u64 {
            post(&mut was, video, user, i * 10);
        }
        let mut plain = ClientPoller::new(video, SimDuration::from_secs(2), SimTime::ZERO);
        let before = was.tao_mut().counters(0).total;
        plain.poll(&mut was, 0, SimTime::from_secs(2)).unwrap();
        plain.poll(&mut was, 0, SimTime::from_secs(4)).unwrap();
        let plain_rows = was.tao_mut().counters(0).total.rows_read - before.rows_read;

        let mut ranked =
            ClientPoller::new(video, SimDuration::from_secs(2), SimTime::ZERO).with_ranked_head(25);
        let before = was.tao_mut().counters(0).total;
        ranked.poll(&mut was, 0, SimTime::from_secs(2)).unwrap();
        ranked.poll(&mut was, 0, SimTime::from_secs(4)).unwrap();
        let ranked_rows = was.tao_mut().counters(0).total.rows_read - before.rows_read;
        assert!(
            ranked_rows > plain_rows + 40,
            "ranked-head polls re-read the head: {ranked_rows} vs {plain_rows}"
        );
    }

    #[test]
    fn polling_cost_dwarfs_point_queries() {
        // The core §2 claim: N clients polling cost ~N range queries per
        // interval, vs Bladerunner's single point query per update.
        let (mut was, video, user) = setup();
        for i in 0..50u64 {
            post(&mut was, video, user, i * 10);
        }
        let before = was.tao_mut().counters(0).total;
        let mut pollers: Vec<ClientPoller> = (0..20)
            .map(|_| ClientPoller::new(video, SimDuration::from_secs(2), SimTime::ZERO))
            .collect();
        for p in &mut pollers {
            p.poll(&mut was, 0, SimTime::from_secs(2)).unwrap();
        }
        let after = was.tao_mut().counters(0).total;
        let poll_rows = after.rows_read - before.rows_read;
        // Each poller rescans the comment list: O(clients * comments).
        assert!(poll_rows > 500, "rows read by polling: {poll_rows}");
    }
}
