package repro.core

import java.util.concurrent.CompletableFuture
import repro.layout.{Layout, LayoutGen}
import repro.workload.Workload
import scala.collection.mutable
import scala.util.Random

/** Precomputes the candidate layouts the LAYOUT MANAGER would generate over
  * a query stream. The three online strategies (Greedy, Regret, OREO) share
  * the same candidate set (§VI-A3: "utilize the same set of data layout
  * candidates computed periodically based on a sliding window of recent
  * queries"), so candidates are computed once per (workload, source) and
  * replayed into every strategy run — including the 3-seed MTS averages.
  */
object CandidateStream {

  /** Workload-sampling source for candidate generation (§VI-D4). */
  sealed trait Source { def tag: String }
  /** A source that [[compute]] generates from one workload sample. */
  sealed trait Sampled extends Source
  /** Sliding window of recent queries (the paper's default). */
  case object SW extends Sampled { val tag = "sw" }
  /** Time-biased reservoir sample. */
  case object RS extends Sampled { val tag = "rs" }
  /** Union: at each epoch, the SW candidate then the RS candidate — the SW
    * and RS streams merged by `atQuery` ([[repro.exp.Lab.Setup.candidates]]).
    */
  case object SWRS extends Source { val tag = "swrs" }

  /** @param windowSize sliding window length (paper default: 200)
    * @param every      generate a candidate every `every` queries
    * @param k          target partitions per layout
    */
  final case class GenConfig(windowSize: Int = 200, every: Int = 200, k: Int = 32)

  /** Rows in the data sample every layout is built from, and its seed. */
  private[core] val SampleRows = 1000
  private[core] val Seed = 13L
  /** The RS source's reservoir capacity and time-decay rate. */
  private[core] val RsCapacity = 200
  private[core] val RsLambda = 2e-4

  /** Run the generation schedule over the workload and materialize each
    * candidate's partition metadata against `data` (a driver-local matrix of
    * the dataset — see DESIGN.md §2 on simulation-mode metadata).
    * `gen` runs on the caller's thread, and each epoch's metadata starts
    * building as soon as its layout exists; the result and the exception
    * thrown are those of a sequential loop of `generate` then [[state]] per
    * epoch, and every build started is finished before `compute` returns or
    * throws.
    */
  def compute(workload: Workload, data: DataMatrix, gen: LayoutGen,
              source: Sampled, cfg: GenConfig = GenConfig()): Vector[Candidate] = {
    val buildSample = data.sample(SampleRows, Seed)
    // the one query sample `source` reads: (add a query, the current sample)
    val (add, current): (Query => Unit, () => Seq[Query]) = source match {
      case SW =>
        val window = mutable.Queue.empty[Query]
        (q => { window.enqueue(q); if (window.size > cfg.windowSize) window.dequeue() }, () => window.toSeq)
      case RS =>
        val reservoir = new Rtbs[Query](RsCapacity, RsLambda, new Random(Seed + 1))
        (reservoir.add, () => reservoir.sample)
    }
    // Layouts are generated here, one epoch after another; each epoch's
    // metadata builds on the pool while the next layouts grow.
    Pool.gather[Candidate] { started =>
      var epoch = 0
      for ((q, i) <- workload.queries.zipWithIndex) {
        add(q)
        if ((i + 1) % cfg.every == 0) {
          epoch += 1
          val qs = current()
          if (qs.nonEmpty) {
            val layout = gen.generate(buildSample, qs, cfg.k, s"${gen.name}-${source.tag}-$epoch")
            started += stateAsync(layout, data).thenApply(Candidate(i, _))
          }
        }
      }
    }.toVector
  }

  /** Build a [[LayoutState]] from a concrete layout and the dataset matrix. */
  def state(layout: Layout, data: DataMatrix): LayoutState =
    LayoutState(layout, MetadataBuilder.fromMatrix(data, layout))

  /** [[state]] as a future whose metadata builds on the [[Pool]]. */
  private[repro] def stateAsync(layout: Layout, data: DataMatrix): CompletableFuture[LayoutState] =
    MetadataBuilder.fromMatrixAsync(data, layout).thenApply(LayoutState(layout, _))
}
