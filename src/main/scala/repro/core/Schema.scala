package repro.core

import java.util.concurrent.atomic.AtomicReferenceArray
import org.apache.spark.sql.DataFrame

/** Column of an encoded analytic table.
  *
  * All experiment tables are *encoded*: every column is a double. Dates are
  * days (or hours) since a fixed epoch and categorical strings are dictionary
  * codes. Partition-level min/max skipping is order-preserving, and
  * categorical skipping uses distinct-value sets, so the encoding preserves
  * the skipping behaviour of the original typed table (see DESIGN.md §3).
  *
  * @param name          column name (matches the DataFrame column)
  * @param isCategorical true for dictionary-coded columns; partition metadata
  *                      then keeps the distinct code set ([[keepsCodes]])
  * @param cardinality   domain size for categorical columns (codes are
  *                      0 until cardinality); 0 for numeric columns
  */
final case class ColumnDef(name: String, isCategorical: Boolean = false, cardinality: Int = 0) {
  /** Metadata keeps a code mask per partition, and Qd-trees cut on codes. */
  def keepsCodes: Boolean = isCategorical && cardinality <= MetadataBuilder.MaxDistinct
}

/** Ordered schema of an encoded table; provides name -> index resolution. */
final case class TableSchema(columns: IndexedSeq[ColumnDef]) {
  val names: IndexedSeq[String] = columns.map(_.name)
  private val byName: Map[String, Int] = names.zipWithIndex.toMap

  def size: Int = columns.size
  // `Query.matchesRow` resolves names per row: the default is a constant, so
  // no closure is allocated per call
  def indexOf(col: String): Int = {
    val j = byName.getOrElse(col, -1)
    if (j < 0) throw new IllegalArgumentException(s"unknown column $col in $names")
    j
  }
  def apply(i: Int): ColumnDef = columns(i)
}

/** Column-major in-memory copy of (a sample of) an encoded table.
  *
  * Used by the layout generators (which the paper runs on a 0.1–1% data
  * sample) and by every [[MetadataBuilder]] build. Column-major layout
  * keeps the routing/aggregation loops cache-friendly.
  */
final case class DataMatrix(schema: TableSchema, cols: Array[Array[Double]]) {
  require(cols.length == schema.size, s"matrix has ${cols.length} columns, schema has ${schema.size}")
  val numRows: Int = if (cols.isEmpty) 0 else cols(0).length

  private val orders = new AtomicReferenceArray[Array[Int]](cols.length)

  /** The row ids of column `j` in ascending order of its values (the order
    * of `java.util.Arrays.sort`), ties by row id: the presorted attribute
    * list a Qd-tree build starts from. Computed on the column's first use
    * and shared by every build on this instance, on any thread (the first
    * published result wins), so callers must not mutate the array.
    */
  def orderOf(j: Int): Array[Int] = {
    val o = orders.get(j)
    if (o != null) o
    else {
      orders.compareAndSet(j, null, DataMatrix.argsort(cols(j)))
      orders.get(j)
    }
  }

  /** Accessor for row `i`: returns a colIdx -> value function used by layout routing. */
  def row(i: Int): Int => Double = j => cols(j)(i)

  /** Uniformly sample up to `n` rows (deterministic in `seed`). */
  def sample(n: Int, seed: Long): DataMatrix = {
    if (numRows <= n) this
    else {
      val rng = new scala.util.Random(seed)
      val idx = Array.fill(n)(rng.nextInt(numRows))
      DataMatrix(schema, cols.map(c => idx.map(c)))
    }
  }
}

object DataMatrix {
  /** Row ids of `col` in ascending order of their values (the order of
    * `java.util.Arrays.sort`), ties by row id. Each row is keyed by its
    * value's rank in the sorted column (high 32 bits) and its id (low 32
    * bits), so one primitive sort of `Long`s orders them.
    */
  private def argsort(col: Array[Double]): Array[Int] = {
    val sorted = col.clone()
    java.util.Arrays.sort(sorted)
    val keys = new Array[Long](col.length)
    var i = 0
    while (i < col.length) {
      // rank: the first index of the value in `sorted`, in the sort's total order
      var lo = 0; var hi = sorted.length
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (java.lang.Double.compare(sorted(mid), col(i)) < 0) lo = mid + 1 else hi = mid
      }
      keys(i) = lo.toLong << 32 | i
      i += 1
    }
    java.util.Arrays.sort(keys)
    val out = new Array[Int](col.length)
    i = 0
    while (i < col.length) { out(i) = keys(i).toInt; i += 1 }
    out
  }

  /** Collect an encoded DataFrame (all-double columns, in schema order) to the driver. */
  def collect(df: DataFrame, schema: TableSchema): DataMatrix = {
    import org.apache.spark.sql.functions.col
    val rows = df.select(schema.names.map(n => col(n).cast("double")): _*).collect()
    val m = Array.ofDim[Double](schema.size, rows.length)
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      var j = 0
      while (j < schema.size) { m(j)(i) = r.getDouble(j); j += 1 }
      i += 1
    }
    DataMatrix(schema, m)
  }
}
