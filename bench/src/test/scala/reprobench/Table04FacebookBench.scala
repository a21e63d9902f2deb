package reprobench

import repro.core.{NeighborExploration, NeighborSample}
import repro.exp.Datasets

/** Paper Table 4: Facebook, target label (1,2) — the abundant-label regime
  * (paper: F/|E| = 42.4%, NS-HT best at 0.104 with 5%|V| budget).
  */
class Table04FacebookBench extends BenchSupport {

  private lazy val b = dataset(Datasets.facebook)
  private lazy val t = grid(Datasets.facebook, b.pairs.head)

  test("Table 4: NRMSE grid prints") {
    show(t.render)
    assert(t.results.nonEmpty)
  }

  test("finding 1: a proposed algorithm is the best at 5%|V|") {
    val (ourBest, ourV) = bestOf(t, ours)
    val (_, baseV) = bestOf(t, baselines)
    show(f"best of ours: $ourBest = $ourV%.3f; best baseline = $baseV%.3f")
    assert(ourV <= baseV, s"ours $ourV vs baselines $baseV")
  }

  test("finding 3: NRMSE decreases with budget for the NS estimators") {
    Seq(NeighborSample.HH, NeighborSample.HT).foreach { alg =>
      assert(t.at(alg, t.checkpoints.size - 1) < t.at(alg, 0), s"$alg: ${t.results(alg)}")
    }
  }

  test("finding 4: abundant labels — NeighborSample beats NeighborExploration") {
    val ns = Seq(NeighborSample.HH, NeighborSample.HT).map(t.at(_, t.checkpoints.size - 1)).min
    val ne = Seq(NeighborExploration.HH, NeighborExploration.HT).map(t.at(_, t.checkpoints.size - 1)).min
    assert(ns < ne, s"NS=$ns should beat NE=$ne when targets are abundant")
  }

  test("accuracy is in the paper's band: best NRMSE at 5%|V| below 0.25") {
    assert(t.bestAtMax._2 < 0.25, s"best=${t.bestAtMax}")
  }
}
