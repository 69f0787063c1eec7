package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import repro.SparkSpec
import repro.core.CandidateStream.{GenConfig, RS, SW, Sampled}
import repro.exp.{DatasetSpec, Datasets, Lab}
import repro.layout.{Layout, LayoutGen, QdTreeGen}
import repro.workload.Workload
import scala.collection.mutable
import scala.util.Random

class CandidateStreamSpec extends SparkSpec {

  /** The candidates of a plain sequential loop: per epoch, `generate` and
    * then [[CandidateStream.state]], on the caller's thread.
    */
  private def sequential(workload: Workload, data: DataMatrix, gen: LayoutGen, source: Sampled,
                         cfg: GenConfig): Vector[Candidate] = {
    import CandidateStream.{RsCapacity, RsLambda, SampleRows, Seed}
    val sample = data.sample(SampleRows, Seed)
    val window = mutable.Queue.empty[Query]
    val reservoir = new Rtbs[Query](RsCapacity, RsLambda, new Random(Seed + 1))
    val out = Vector.newBuilder[Candidate]
    for ((q, i) <- workload.queries.zipWithIndex) {
      if (source == SW) { window.enqueue(q); if (window.size > cfg.windowSize) window.dequeue() }
      else reservoir.add(q)
      if ((i + 1) % cfg.every == 0) {
        val qs = if (source == SW) window.toSeq else reservoir.sample
        if (qs.nonEmpty) {
          val layout = gen.generate(sample, qs, cfg.k, s"${gen.name}-${source.tag}-${(i + 1) / cfg.every}")
          out += Candidate(i, CandidateStream.state(layout, data))
        }
      }
    }
    out.result()
  }

  /** A candidate stream's query indices, layout ids and metadata. */
  private def view(cs: Seq[Candidate]) =
    cs.map(c => (c.atQuery, c.state.id, c.state.metadata.partitions))

  private def seeded(ds: DatasetSpec, seed: Long) =
    (Lab.matrix(spark, ds, 0.003), ds.mkWorkload(1200, 6, seed))

  test("compute equals a sequential loop of generate and state (SW and RS, TPCH and Telemetry)") {
    val cfg = GenConfig(windowSize = 150, every = 150, k = 16)
    for ((ds, seed) <- Seq(Datasets.tpch -> 3L, Datasets.telemetry -> 4L)) {
      val (data, workload) = seeded(ds, seed)
      for (source <- Seq(SW, RS)) {
        val got = CandidateStream.compute(workload, data, QdTreeGen, source, cfg)
        assert(got.size == 8, s"${ds.name} ${source.tag}")
        val reference = sequential(workload, data, QdTreeGen, source, cfg)
        assert(view(got) == view(reference), s"${ds.name} ${source.tag}")
        assert(got.map(_.state.layout) == reference.map(_.state.layout), s"${ds.name} ${source.tag}")
      }
    }
  }

  // -- failures, on a small synthetic table --------------------------------

  private val schema = TableSchema(IndexedSeq(ColumnDef("a"), ColumnDef("c", isCategorical = true, cardinality = 4)))
  private val n = 2000
  private val data = DataMatrix(schema, Array(Array.tabulate(n)(i => (i * 37 % n).toDouble), Array.tabulate(n)(i => (i % 4).toDouble)))
  private val workload = Workload(Vector.tabulate(1000)(i => Query(i, 0, Seq(RangePred("a", i, i + 50.0)))), Vector(0), Vector(0))
  private val cfg = GenConfig(every = 100, k = 4)

  private def epochOf(id: String): Int = id.split('-').last.toInt

  /** A generator of two-partition layouts on `a` that fails as scripted:
    * `generate` throws at the epochs of `genFails`; the layouts of the
    * epochs of `badRoutes` route every row outside `[0, 2)`, once `release`
    * is open (so that their metadata fails); the layout of `slow` takes a
    * while to route; the layout of an epoch `e` in `waitsFor` holds its
    * first routed row until epoch `waitsFor(e)` routes a row, and fails the
    * build if that takes more than 10 s. Rows routed per epoch are counted
    * in `routed`.
    */
  private final class Scripted(genFails: Set[Int] = Set.empty, badRoutes: Set[Int] = Set.empty,
                               slow: Int = -1, release: CountDownLatch = new CountDownLatch(0),
                               waitsFor: Map[Int, Int] = Map.empty) extends LayoutGen {
    val routed: mutable.Map[Int, AtomicInteger] = mutable.Map.empty
    /** Per epoch (1 to 10), opened when its layout routes its first row. */
    private val routing = IndexedSeq.fill(11)(new CountDownLatch(1))
    override val name = "scripted"
    override def generate(sample: DataMatrix, queries: Seq[Query], k: Int, id: String): Layout = {
      val e = epochOf(id)
      if (genFails(e)) {
        release.countDown()
        throw new IllegalStateException(s"generate failed at epoch $e")
      }
      val count = new AtomicInteger
      routed(e) = count
      val layoutId = id
      new Layout {
        override def id: String = layoutId
        override def numPartitions = 2
        override def bidOf(get: Int => Double): Int = {
          val first = count.incrementAndGet() == 1
          if (first) {
            routing(e).countDown()
            for (w <- waitsFor.get(e) if !routing(w).await(10, TimeUnit.SECONDS))
              throw new IllegalStateException(s"epoch $w's routing did not start within 10 s of epoch $e's")
          }
          if (first && e == slow) Thread.sleep(300)
          if (badRoutes(e)) { release.await(10, TimeUnit.SECONDS); 7 }
          else if (get(0) < 1000) 0 else 1
        }
      }
    }
  }

  /** `compute`'s exception and the sequential loop's, each on its generator. */
  private def failures(gen: Scripted, reference: Scripted): (Throwable, Throwable) =
    (intercept[Exception](CandidateStream.compute(workload, data, gen, SW, cfg)),
      intercept[Exception](sequential(workload, data, reference, SW, cfg)))

  private def assertServesNextCall(): Unit = {
    val gen = new Scripted()
    assert(view(CandidateStream.compute(workload, data, gen, SW, cfg)) ==
      view(sequential(workload, data, new Scripted(), SW, cfg)))
    assert(gen.routed.size == 10 && gen.routed.values.forall(_.get == n))
  }

  test("compute rethrows the first failing epoch's exception unwrapped, as the sequential loop does") {
    // generate fails
    val (g, gs) = failures(new Scripted(genFails = Set(4, 7)), new Scripted(genFails = Set(4, 7)))
    assert(g.isInstanceOf[IllegalStateException] && g.getMessage == "generate failed at epoch 4")
    assert(g.getClass == gs.getClass && g.getMessage == gs.getMessage)
    assertServesNextCall()
    // metadata fails: the first failing epoch's, not a later one's
    val (m, ms) = failures(new Scripted(badRoutes = Set(3, 6)), new Scripted(badRoutes = Set(3, 6)))
    assert(m.isInstanceOf[IllegalArgumentException] && m.getMessage == "layout scripted-sw-3 routed row to BID 7 outside [0,2)")
    assert(m.getClass == ms.getClass && m.getMessage == ms.getMessage)
    assertServesNextCall()
  }

  test("an earlier epoch's metadata failure wins over a later epoch's generate failure") {
    // epoch 2's metadata fails only after epoch 3's generate has thrown (the
    // sequential loop never reaches epoch 3, so its routes are not held)
    val release = new CountDownLatch(1)
    val (e, es) = failures(new Scripted(genFails = Set(3), badRoutes = Set(2), release = release),
      new Scripted(genFails = Set(3), badRoutes = Set(2)))
    assert(release.getCount == 0)
    assert(e.isInstanceOf[IllegalArgumentException] && e.getMessage == "layout scripted-sw-2 routed row to BID 7 outside [0,2)")
    assert(e.getClass == es.getClass && e.getMessage == es.getMessage)
    assertServesNextCall()
  }

  test("compute leaves no metadata build running when it throws") {
    val gen = new Scripted(genFails = Set(5), slow = 4)
    intercept[IllegalStateException](CandidateStream.compute(workload, data, gen, SW, cfg))
    assert(gen.routed.keySet == Set(1, 2, 3, 4))
    assert(gen.routed.values.forall(_.get == n), gen.routed.map { case (e, c) => e -> c.get })
    assertServesNextCall()
  }

  test("epochs' metadata builds run concurrently") {
    // epoch 1's build holds a pool worker until epoch 2's build routes a row
    assume(Pool.size >= 2, "one pool worker cannot run two builds at once")
    val gen = new Scripted(waitsFor = Map(1 -> 2))
    assert(view(CandidateStream.compute(workload, data, gen, SW, cfg)) ==
      view(sequential(workload, data, new Scripted(), SW, cfg)))
    assert(gen.routed.size == 10 && gen.routed.values.forall(_.get == n))
  }
}
