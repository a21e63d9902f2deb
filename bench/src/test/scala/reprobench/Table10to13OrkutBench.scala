package reprobench

import repro.core.{NeighborExploration, NeighborSample}
import repro.exp.Datasets

/** Paper Tables 10–13: Orkut with four degree-label pairs (paper fractions
  * 0.001%–0.657%; NE-* best for rare pairs, NS-* competitive for common).
  */
class Table10to13OrkutBench extends BenchSupport {

  private lazy val b = dataset(Datasets.orkut)

  test("Tables 10-13: NRMSE grids print for the four quartile pairs") {
    b.pairs.foreach { p => show(grid(Datasets.orkut, p).render) }
    assert(b.pairs.size == 4)
  }

  test("finding 1: a proposed algorithm is the best on every pair") {
    b.pairs.foreach { p =>
      val t = grid(Datasets.orkut, p)
      val (_, ourV) = bestOf(t, ours)
      val (_, baseV) = bestOf(t, baselines)
      assert(ourV <= baseV, s"pair $p: ours $ourV vs baselines $baseV")
    }
  }

  test("rare labels: NeighborExploration beats NeighborSample") {
    val p = b.pairs.head
    val t = grid(Datasets.orkut, p)
    val ne = Seq(NeighborExploration.HH, NeighborExploration.HT,
                 NeighborExploration.RW).map(t.at(_, t.checkpoints.size - 1)).min
    val ns = Seq(NeighborSample.HH, NeighborSample.HT).map(t.at(_, t.checkpoints.size - 1)).min
    assert(ne < ns, s"pair $p: NE=$ne vs NS=$ns")
  }

  test("finding 5: more frequent labels estimate better") {
    val rare = grid(Datasets.orkut, b.pairs.head)
    val common = grid(Datasets.orkut, b.pairs.last)
    assert(common.bestAtMax._2 < rare.bestAtMax._2,
      s"common=${common.bestAtMax} rare=${rare.bestAtMax}")
  }
}
