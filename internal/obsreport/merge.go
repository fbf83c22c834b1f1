package obsreport

// Mergeable builders: the timeline, wear and cleaning builders can fold
// another builder's accumulated state into themselves, which is what lets a
// fleet of simulated devices aggregate at constant memory — each run feeds
// its own private builders, and internal/fleet merges finished runs into
// one fleet-level builder per figure, in run order, without retaining any
// per-run event data.
//
// Merging is exact for counts, histogram buckets, and extremes. Float sums
// are added shard-by-shard, so a deterministic merged result additionally
// requires a deterministic merge order; internal/fleet merges shards in run
// index order regardless of worker count for exactly this reason.
//
// Unbounded per-run detail (timeline sleep intervals) is deliberately NOT
// merged: a merged builder carries distributions and totals only, so fleet
// memory stays constant in the number of runs. The per-run builders keep
// that detail for single-run reports. The other builders do not merge: the
// fleet draws its latency figure from each run's result histograms, and its
// energy, faults and array figures as per-run distributions of each run's
// result.

// Merge folds o's per-device spin history into b: spin counts, completed
// sleep totals, and the sleep-duration distributions. The per-interval
// Sleeps lists and the trailing OpenSleepUs are per-run detail and are not
// merged — overlapping runs have no single interval timeline — so a merged
// builder renders as distributions (see SleepChart), not as square waves.
func (b *TimelineBuilder) Merge(o *TimelineBuilder) {
	if o == nil || b == o {
		return
	}
	for dev, otl := range o.byDev {
		tl := b.get(dev)
		tl.SpinUps += otl.SpinUps
		tl.SpinDowns += otl.SpinDowns
		tl.TotalSleepUs += otl.TotalSleepUs
		tl.SleepHist.Merge(otl.SleepHist)
	}
}

// Merge folds o's per-segment erase counts into b by summing final counts:
// the merged report answers "how many erasures did segment i absorb across
// the fleet", so replicas of one device stack their wear.
func (b *WearBuilder) Merge(o *WearBuilder) {
	if o == nil || b == o {
		return
	}
	for seg, c := range o.counts {
		b.counts[seg] += c
	}
	b.total += o.total
}

// Merge folds o's cleaner work into b.
func (b *CleaningBuilder) Merge(o *CleaningBuilder) {
	if o == nil || b == o {
		return
	}
	b.r.Cleans += o.r.Cleans
	b.r.CopiedBlocks += o.r.CopiedBlocks
	b.r.Stalls += o.r.Stalls
	b.r.TotalCleanUs += o.r.TotalCleanUs
	b.r.LivePerClean.Merge(o.r.LivePerClean)
}
