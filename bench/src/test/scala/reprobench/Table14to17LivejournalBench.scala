package reprobench

import repro.core.{NeighborExploration, NeighborSample}
import repro.exp.Datasets

/** Paper Tables 14–17: LiveJournal with four degree-label pairs (paper
  * fractions 0.001%–4.1%; NE-* best for rare, both families close for
  * common labels).
  */
class Table14to17LivejournalBench extends BenchSupport {

  private lazy val b = dataset(Datasets.livejournal)

  test("Tables 14-17: NRMSE grids print for the four quartile pairs") {
    b.pairs.foreach { p => show(grid(Datasets.livejournal, p).render) }
    assert(b.pairs.size == 4)
  }

  test("finding 1: a proposed algorithm is the best on every pair") {
    b.pairs.foreach { p =>
      val t = grid(Datasets.livejournal, p)
      val (_, ourV) = bestOf(t, ours)
      val (_, baseV) = bestOf(t, baselines)
      assert(ourV <= baseV, s"pair $p: ours $ourV vs baselines $baseV")
    }
  }

  test("rare labels: NeighborExploration beats NeighborSample") {
    val p = b.pairs.head
    val t = grid(Datasets.livejournal, p)
    val ne = Seq(NeighborExploration.HH, NeighborExploration.HT,
                 NeighborExploration.RW).map(t.at(_, t.checkpoints.size - 1)).min
    val ns = Seq(NeighborSample.HH, NeighborSample.HT).map(t.at(_, t.checkpoints.size - 1)).min
    assert(ne < ns, s"pair $p: NE=$ne vs NS=$ns")
  }

  test("finding 3: NE-HH NRMSE decreases with budget on every pair") {
    b.pairs.foreach { p =>
      val t = grid(Datasets.livejournal, p)
      assert(t.at(NeighborExploration.HH, t.checkpoints.size - 1) < t.at(NeighborExploration.HH, 0),
        s"pair $p")
    }
  }
}
