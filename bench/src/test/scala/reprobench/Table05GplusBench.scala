package reprobench

import repro.core.{NeighborExploration, NeighborSample}
import repro.exp.Datasets

/** Paper Table 5: Google+, target label (1,2) — abundant labels on a denser
  * graph (paper: F/|E| = 26.9%, NS-HH best at 0.029 with 5%|V| budget).
  */
class Table05GplusBench extends BenchSupport {

  private lazy val b = dataset(Datasets.gplus)
  private lazy val t = grid(Datasets.gplus, b.pairs.head)

  test("Table 5: NRMSE grid prints") {
    show(t.render)
    assert(t.results.nonEmpty)
  }

  test("finding 1: a proposed algorithm is the best at 5%|V|") {
    val (_, ourV) = bestOf(t, ours)
    val (_, baseV) = bestOf(t, baselines)
    assert(ourV <= baseV, s"ours $ourV vs baselines $baseV")
  }

  test("finding 4: NS dominates NE on this abundant-label dense graph") {
    val ns = Seq(NeighborSample.HH, NeighborSample.HT).map(t.at(_, t.checkpoints.size - 1)).min
    val ne = Seq(NeighborExploration.HH, NeighborExploration.HT,
                 NeighborExploration.RW).map(t.at(_, t.checkpoints.size - 1)).min
    assert(ns < ne, s"NS=$ns vs NE=$ne")
  }

  test("finding 3: NS-HH NRMSE decreases with budget") {
    assert(t.at(NeighborSample.HH, t.checkpoints.size - 1) < t.at(NeighborSample.HH, 0))
  }

  test("accuracy: best NRMSE at 5%|V| below 0.15 (paper: 0.029)") {
    assert(t.bestAtMax._2 < 0.15, s"best=${t.bestAtMax}")
  }
}
