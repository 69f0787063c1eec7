package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.CandidateStream.{GenConfig, RS, SW, SWRS, Sampled, Source}
import repro.core._
import repro.layout.{LayoutGen, RangeLayout}
import repro.workload.Workload
import scala.collection.mutable
import scala.util.Random

/** Shared helpers for the experiment harnesses: the paper's defaults, the
  * per-dataset [[Lab.Setup]], building the default / static /
  * per-template-best layout states and seed-averaging MTS runs.
  */
object Lab {

  /** The paper's defaults (§VI-A3, Table II's bold row): reorganization cost
    * α, transition weight γ, admission threshold ε, the seeds of the 3-run
    * averages and partitions per layout k.
    */
  val Alpha = 80.0
  val Gamma = 1.0
  val Epsilon = 0.08
  val Seeds: Seq[Long] = Seq(1L, 2L, 3L)
  val K = 32

  /** One dataset's experiment set-up, shared by every harness (§VI evaluates
    * one fixed set-up per dataset): the query stream, the driver-local
    * matrix, the default layout, and per layout generator the Static state,
    * the per-template best states and the candidate streams, each built once.
    * Build it with [[Lab.setup]].
    */
  final class Setup private[Lab] (val ds: DatasetSpec, val workload: Workload,
                                  val data: DataMatrix, val default: LayoutState) {
    private val streams = mutable.Map.empty[(LayoutGen, Sampled), Vector[Candidate]]
    private val statics = mutable.Map.empty[LayoutGen, LayoutState]
    private val bests = mutable.Map.empty[LayoutGen, Map[Int, LayoutState]]

    /** The candidate stream of `gen` over the workload, computed on first use.
      * `SWRS` is the SW and RS streams merged stably by `atQuery`.
      */
    def candidates(gen: LayoutGen, source: Source): Vector[Candidate] = source match {
      case s: Sampled => streams.getOrElseUpdate((gen, s),
        CandidateStream.compute(workload, data, gen, s, GenConfig(k = K)))
      case SWRS => (candidates(gen, SW) ++ candidates(gen, RS)).sortBy(_.atQuery)
    }

    /** The Static baseline's state for `gen` ([[Lab.staticState]]), built on first use. */
    def static(gen: LayoutGen): LayoutState =
      statics.getOrElseUpdate(gen, staticState(data, workload, gen, K))

    /** Each template's best state for `gen` ([[Lab.templateBest]]), built on first use. */
    def best(gen: LayoutGen): Map[Int, LayoutState] =
      bests.getOrElseUpdate(gen, templateBest(data, ds, gen, K))
  }

  /** Build the set-up of `ds` at scale factor `sf`: a stream of the paper's
    * length for the dataset times `scale` (at least 400 queries) and
    * layouts of [[K]] partitions.
    */
  def setup(spark: SparkSession, ds: DatasetSpec, sf: Double, scale: Double = 1.0): Setup = {
    val nQ = math.max(400, (ds.paperQueries * scale).toInt)
    val workload = ds.mkWorkload(nQ, ds.paperSegments, 42 + ds.name.hashCode % 97)
    val data = matrix(spark, ds, sf)
    new Setup(ds, workload, data, defaultState(data, ds, K))
  }

  /** Collect the encoded dataset to a driver-local matrix for simulation. */
  def matrix(spark: SparkSession, ds: DatasetSpec, sf: Double): DataMatrix =
    DataMatrix.collect(ds.mkDf(spark, sf), ds.schema)

  /** The pre-optimization default layout: equi-depth range partitioning on
    * the dataset's arrival/sort column (§IV-A "start with a default layout").
    */
  def defaultState(data: DataMatrix, ds: DatasetSpec, k: Int): LayoutState = {
    val j = ds.schema.indexOf(ds.defaultCol)
    val layout = RangeLayout.equiDepth("default", j, data.cols(j), k)
    CandidateStream.state(layout, data)
  }

  /** Rows in the data sample of the Static and per-template-best layouts. */
  private val SampleRows = 1000
  /** Queries drawn from the whole workload for the Static layout, and its seed. */
  private val StaticQueries = 2000
  private val StaticSeed = 5L
  /** Queries generated per template for its best layout, and their seed. */
  private val BestQueries = 200
  private val BestSeed = 6L

  /** The Static baseline's layout: generated from a sample of the *entire*
    * workload (the paper estimates with ~2000 queries, §VI-A1).
    */
  def staticState(data: DataMatrix, workload: Workload, gen: LayoutGen, k: Int): LayoutState = {
    val rng = new Random(StaticSeed)
    val qs =
      if (workload.queries.size <= StaticQueries) workload.queries
      else Vector.fill(StaticQueries)(workload.queries(rng.nextInt(workload.queries.size)))
    val layout = gen.generate(data.sample(SampleRows, StaticSeed), qs, k, s"static-${gen.name}")
    CandidateStream.state(layout, data)
  }

  /** Best layout per query template (for the MTS-Optimal / Offline-Optimal
    * oracles, §VI-C): each is generated from queries of that template only.
    */
  def templateBest(data: DataMatrix, ds: DatasetSpec, gen: LayoutGen, k: Int): Map[Int, LayoutState] = {
    val rng = new Random(BestSeed)
    val sample = data.sample(SampleRows, BestSeed)
    // layouts grow here, one template after another, while earlier
    // templates' metadata builds on the pool
    Pool.gather[LayoutState] { started =>
      for (t <- ds.templates.indices) {
        val qs = Vector.tabulate(BestQueries)(i => Query(i, t, ds.templates(t).instantiate(rng)))
        val layout = gen.generate(sample, qs, k, s"best-t$t-${gen.name}")
        started += CandidateStream.stateAsync(layout, data)
      }
    }.zipWithIndex.map { case (s, t) => t -> s }.toMap
  }

  /** Average results of several seeds (the paper reports 3-run averages for
    * all methods using the randomized MTS algorithm).
    */
  def avg(results: Seq[SimResult]): SimResult = {
    require(results.nonEmpty)
    val n = results.size.toDouble
    SimResult(results.head.name,
      results.map(_.queryCost).sum / n,
      results.map(_.reorgCost).sum / n,
      math.round(results.map(_.switches).sum / n).toInt)
  }

  /** Run OREO over a workload with full wiring; returns the per-seed result
    * and the strategy (for state-space diagnostics).
    */
  def runOreo(workload: Workload, initial: LayoutState, candidates: Seq[Candidate],
              alpha: Double, gamma: Double, epsilon: Double, delay: Int,
              seed: Long): (SimResult, OreoStrategy) = {
    val manager = new LayoutManager(epsilon, rng = new Random(seed * 31 + 7))
    val strat = new OreoStrategy(initial, alpha, gamma, manager, new Random(seed))
    val res = Simulator.run(workload, initial, candidates, strat, alpha, delay)
    (res, strat)
  }

  /** 3-seed-averaged OREO run. */
  def oreoAvg(workload: Workload, initial: LayoutState, candidates: Seq[Candidate],
              alpha: Double, gamma: Double, epsilon: Double, delay: Int,
              seeds: Seq[Long] = Seeds): SimResult =
    avg(seeds.map(s => runOreo(workload, initial, candidates, alpha, gamma, epsilon, delay, s)._1))
}
