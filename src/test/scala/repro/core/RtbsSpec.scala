package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RtbsSpec extends AnyFunSuite {

  test("never exceeds capacity") {
    val r = new Rtbs[Int](10, 0.01, new Random(1))
    (1 to 1000).foreach(r.add)
    assert(r.size == 10)
  }

  test("holds everything while under capacity") {
    val r = new Rtbs[Int](50, 0.01, new Random(1))
    (1 to 20).foreach(r.add)
    assert(r.sample.sorted == (1 to 20))
  }

  test("sample is returned in arrival order") {
    val r = new Rtbs[Int](100, 0.0, new Random(1))
    Seq(5, 3, 9, 1).foreach(r.add)
    assert(r.sample == Seq(5, 3, 9, 1))
  }

  test("lambda=0 behaves like a uniform reservoir") {
    // averaged over trials, early and late halves should be near-equally
    // represented
    val trials = 200
    var early = 0
    for (seed <- 1 to trials) {
      val r = new Rtbs[Int](20, 0.0, new Random(seed))
      (1 to 1000).foreach(r.add)
      early += r.sample.count(_ <= 500)
    }
    val frac = early.toDouble / (trials * 20)
    assert(frac > 0.4 && frac < 0.6, s"uniform reservoir early fraction = $frac")
  }

  test("positive lambda biases toward recent items") {
    val trials = 100
    var recent = 0
    for (seed <- 1 to trials) {
      val r = new Rtbs[Int](20, 0.01, new Random(seed))
      (1 to 1000).foreach(r.add)
      recent += r.sample.count(_ > 500)
    }
    val frac = recent.toDouble / (trials * 20)
    assert(frac > 0.8, s"time-biased reservoir recent fraction = $frac")
  }

  test("stronger decay means stronger recency bias") {
    def recentFrac(lambda: Double): Double = {
      var recent = 0
      for (seed <- 1 to 50) {
        val r = new Rtbs[Int](20, lambda, new Random(seed))
        (1 to 2000).foreach(r.add)
        recent += r.sample.count(_ > 1800)
      }
      recent.toDouble / (50 * 20)
    }
    assert(recentFrac(0.05) > recentFrac(0.001))
  }

  /** The sample the key log(u)·e^{−λt} kept before the log-domain key. */
  private def directKeySample(capacity: Int, lambda: Double, seed: Long, n: Int): IndexedSeq[Int] = {
    val rng = new Random(seed)
    val heap = scala.collection.mutable.PriorityQueue.empty[(Double, Int)](
      Ordering.by((e: (Double, Int)) => (-e._1, e._2)))
    for (t <- 0 until n) {
      val key = math.log(rng.nextDouble() max Double.MinPositiveValue) * math.exp(-lambda * t)
      if (heap.size < capacity) heap.enqueue((key, t))
      else if (key > heap.head._1) { heap.dequeue(); heap.enqueue((key, t)) }
    }
    heap.toIndexedSeq.map(_._2).sorted
  }

  test("the log-domain key keeps the same sample as the direct key at 30k items") {
    for (seed <- 1 to 5; capacity <- Seq(50, 200)) {
      val r = new Rtbs[Int](capacity, 2e-4, new Random(seed))
      (0 until 30000).foreach(r.add)
      assert(r.sample == directKeySample(capacity, 2e-4, seed, 30000), s"seed $seed capacity $capacity")
    }
  }

  test("sampling does not freeze on a 10M-item stream: ages after 4M match those at 30k") {
    val lambda = 2e-4
    val capacity = 200
    def ages(sample: IndexedSeq[Int], t: Int): IndexedSeq[Int] = sample.map(t - 1 - _)
    // ages at 30k items, over independent streams
    val early = (1 to 12).flatMap { seed =>
      val r = new Rtbs[Int](capacity, lambda, new Random(seed))
      (0 until 30000).foreach(r.add)
      ages(r.sample, 30000)
    }
    // ages every 500k items from 4.5M to 10M: far apart next to 1/λ = 5k
    // items, so the samples are independent
    val r = new Rtbs[Int](capacity, lambda, new Random(99))
    val late = IndexedSeq.newBuilder[Int]
    var t = 0
    for (checkpoint <- 4500000 to 10000000 by 500000) {
      while (t < checkpoint) { r.add(t); t += 1 }
      val a = ages(r.sample, t)
      assert(a.min < 1000, s"no item admitted in the last 1000 of $t")
      late ++= a
    }
    def mean(a: IndexedSeq[Int]) = a.map(_.toDouble).sum / a.size
    def below(a: IndexedSeq[Int], x: Double) = a.count(_ < x).toDouble / a.size
    val lateAges = late.result()
    assert(math.abs(mean(lateAges) / mean(early) - 1) < 0.1, s"mean age ${mean(lateAges)} vs ${mean(early)}")
    for (x <- Seq(0.5 / lambda, 1 / lambda, 2 / lambda))
      assert(math.abs(below(lateAges, x) - below(early, x)) < 0.05, s"share of ages below $x")
  }

  test("deterministic for a fixed seed") {
    def s(seed: Long) = {
      val r = new Rtbs[Int](15, 0.005, new Random(seed))
      (1 to 500).foreach(r.add)
      r.sample
    }
    assert(s(9) == s(9))
  }
}
