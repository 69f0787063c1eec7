package repro.core

import java.util.concurrent.{CompletableFuture, ExecutionException, Executors}
import scala.collection.mutable

/** The one shared worker pool: `availableProcessors` daemon threads, created
  * on first use. Work reaches it as [[async]] tasks, which a caller chains
  * into a task graph with `CompletableFuture`'s `then…` stages (for example
  * [[MetadataBuilder.fromMatrixAsync]]).
  *
  * A task never waits on another future: a stage that needs other results
  * depends on their future rather than blocking a worker in [[await]]. So the
  * pool cannot deadlock, even at `size == 1`. Only a thread that is not a
  * worker may call [[await]] or [[gather]]. Code that is not thread-safe must
  * not run on the pool — in particular `LayoutGen.generate`, which callers
  * may wrap in single-threaded tracing.
  */
private[repro] object Pool {

  val size: Int = Runtime.getRuntime.availableProcessors

  private lazy val workers = Executors.newFixedThreadPool(size, (r: Runnable) => {
    val t = new Thread(r, "repro-pool")
    t.setDaemon(true)
    t
  })

  /** `f` as a task on a worker. */
  def async[T](f: => T): CompletableFuture[T] = CompletableFuture.supplyAsync(() => f, workers)

  /** Completes when every one of `futures` has completed: with their results
    * in order, or, if any failed, with the first failure in order.
    */
  def all[T](futures: Seq[CompletableFuture[T]]): CompletableFuture[IndexedSeq[T]] =
    CompletableFuture.allOf(futures: _*).handle((_, _) => futures.map(_.join()).toIndexedSeq)

  /** Waits for `future` and returns its result, or rethrows its failure as thrown. */
  def await[T](future: CompletableFuture[T]): T =
    try future.get() catch { case e: ExecutionException => throw e.getCause }

  /** Runs `start` on the caller's thread; `start` adds the futures it starts
    * to the buffer it is given. Returns their results in the order added.
    * Waits for every future added, also when `start` throws; the first failed
    * future in order wins over a failure of `start`, which is rethrown last.
    */
  def gather[T](start: mutable.Growable[CompletableFuture[T]] => Unit): IndexedSeq[T] = {
    val started = mutable.ArrayBuffer.empty[CompletableFuture[T]]
    try start(started) catch { case e: Throwable => await(all(started.toSeq)); throw e }
    await(all(started.toSeq))
  }
}
